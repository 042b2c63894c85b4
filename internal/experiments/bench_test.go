package experiments

import (
	"bytes"
	"context"
	"testing"

	"repro/internal/hpo"
)

// BenchmarkReplayPaperCampaign measures what continuing the paper
// campaign (5 × 100 × 7 on the surrogate) from its whole log costs, next
// to running it: "direct" runs the campaign, "load" is LoadCampaign of its
// log, and "replay" is ContinueCampaign from the loaded log, which
// evaluates nothing.
//
//	go test ./internal/experiments -run '^$' -bench ReplayPaperCampaign
func BenchmarkReplayPaperCampaign(b *testing.B) {
	ctx := context.Background()
	c, err := RunPaperCampaign(ctx, PaperOptions())
	if err != nil {
		b.Fatal(err)
	}
	var log bytes.Buffer
	if err := hpo.SaveCampaign(&log, c.Result); err != nil {
		b.Fatal(err)
	}
	b.Run("direct", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := RunPaperCampaign(ctx, PaperOptions()); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("load", func(b *testing.B) {
		b.ReportAllocs()
		b.ReportMetric(float64(log.Len()), "log_bytes")
		for i := 0; i < b.N; i++ {
			if _, err := hpo.LoadCampaign(bytes.NewReader(log.Bytes())); err != nil {
				b.Fatal(err)
			}
		}
	})
	loaded, err := hpo.LoadCampaign(bytes.NewReader(log.Bytes()))
	if err != nil {
		b.Fatal(err)
	}
	b.Run("replay", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := hpo.ContinueCampaign(ctx, c.Config, loaded); err != nil {
				b.Fatal(err)
			}
		}
	})
}
