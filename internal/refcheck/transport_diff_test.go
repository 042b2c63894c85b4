package refcheck

import (
	"bytes"
	"context"
	"encoding/json"
	"math/rand"
	"testing"

	"repro/internal/cluster"
	"repro/internal/deepmd"
)

// TestGoldenCampaignTransportDifferential is the transport oracle for
// the whole pipeline: the golden campaign run over the cluster plane's
// wire framing at different per-worker thread counts must reproduce the
// committed local fixtures byte for byte.  Local execution pins the same
// fixtures in TestGoldenCampaignLocal, so any divergence here isolates a
// transport bug rather than a numeric one.
func TestGoldenCampaignTransportDifferential(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	train, val := goldenDataset(t)
	cases := []struct {
		name    string
		threads int
	}{
		{"binary_threads1", 1},
		{"binary_threads8", 8},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			worker := &GoldenEvaluator{Train: train, Val: val, Threads: tc.threads}
			lc, err := cluster.NewLocalCluster(2, cluster.EvalHandler(worker), 0)
			if err != nil {
				t.Fatalf("local cluster: %v", err)
			}
			defer lc.Close()

			res, err := RunGoldenCampaign(context.Background(), &cluster.Evaluator{Client: lc.Client}, 2)
			if err != nil {
				t.Fatalf("golden campaign via cluster: %v", err)
			}
			checkGolden(t, "frontier.txt", []byte(FormatFrontier(res.Final)))
			checkGolden(t, "hypervolume.txt", []byte(FormatHypervolume(res.Final)))
		})
	}
}

// TestGoldenLCurveTransportInvariance ships the reference candidate's
// raw learning-curve bytes through a cluster round trip and requires it
// to deliver the committed lcurve.out fixture exactly.  The lcurve is the
// most fragile artifact we emit — free-form text with scientific-notation
// floats — so it makes a good payload-transparency probe for the wire
// codec.
func TestGoldenLCurveTransportInvariance(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	train, val := goldenDataset(t)
	handler := func(ctx context.Context, _ json.RawMessage) (json.RawMessage, error) {
		ev := &GoldenEvaluator{Train: train, Val: val, Threads: 1}
		cfg := ev.GoldenTrainConfig(GoldenReferenceGenome)
		rng := rand.New(rand.NewSource(genomeSeed(GoldenReferenceGenome)))
		m, err := deepmd.NewModel(rng, goldenModelConfig())
		if err != nil {
			return nil, err
		}
		var buf bytes.Buffer
		if _, err := deepmd.Train(ctx, m, train, val, cfg, &buf); err != nil {
			return nil, err
		}
		return json.Marshal(buf.String())
	}

	t.Run("binary", func(t *testing.T) {
		lc, err := cluster.NewLocalCluster(1, handler, 0)
		if err != nil {
			t.Fatalf("local cluster: %v", err)
		}
		defer lc.Close()

		out, err := lc.Client.Submit(context.Background(), json.RawMessage(`{}`))
		if err != nil {
			t.Fatalf("lcurve round trip: %v", err)
		}
		var lcurve string
		if err := json.Unmarshal(out, &lcurve); err != nil {
			t.Fatalf("bad lcurve payload: %v", err)
		}
		checkGolden(t, "lcurve.out", []byte(lcurve))
	})
}
