package nas

import (
	"context"
	"fmt"
	"strings"

	"repro/internal/ea"
	"repro/internal/hpo"
	"repro/internal/nsga2"
	"repro/internal/surrogate"
)

// CompareConfig scales the NAS-vs-fixed-architecture comparison.
type CompareConfig struct {
	Runs        int
	PopSize     int
	Generations int
	Seed        int64
	Parallelism int
}

// CompareResult holds both campaigns and their frontier quality.
type CompareResult struct {
	Fixed, NAS               *hpo.CampaignResult
	FixedHV, NASHV           float64 // exact 2-D hypervolume vs the Fig. 1 window corner
	FixedFront, NASFront     ea.Population
	BestNASParams            []Params // decoded frontier architectures
	FrontierParamCountsRatio []float64
}

// hvRef is the hypervolume reference (energy, force), matching the Fig. 1
// plot window corner.
var hvRef = ea.Fitness{0.03, 0.6}

// Compare runs the fixed-architecture campaign (the paper's) and the
// 11-gene NAS campaign under identical budgets and seeds, then compares
// frontier hypervolumes — answering §4's "model fidelity may also be
// further improved by incorporating neural architecture searching".
func Compare(ctx context.Context, cfg CompareConfig) (*CompareResult, error) {
	if cfg.Runs <= 0 {
		cfg = CompareConfig{Runs: 2, PopSize: 60, Generations: 5, Seed: 7, Parallelism: 8}
	}
	out := &CompareResult{}

	fixed, err := hpo.RunCampaign(ctx, hpo.CampaignConfig{
		Runs: cfg.Runs, PopSize: cfg.PopSize, Generations: cfg.Generations,
		Evaluator:   surrogate.NewEvaluator(surrogate.Config{Seed: cfg.Seed}),
		Parallelism: cfg.Parallelism, AnnealFactor: nsga2.PaperAnnealFactor, BaseSeed: cfg.Seed,
	})
	if err != nil {
		return nil, fmt.Errorf("nas: fixed campaign: %w", err)
	}
	out.Fixed = fixed

	bounds, std := Representation()
	nasRes, err := hpo.RunCampaign(ctx, hpo.CampaignConfig{
		Runs: cfg.Runs, PopSize: cfg.PopSize, Generations: cfg.Generations,
		Evaluator:      NewEvaluator(surrogate.Config{Seed: cfg.Seed}),
		Parallelism:    cfg.Parallelism,
		AnnealFactor:   nsga2.PaperAnnealFactor,
		BaseSeed:       cfg.Seed,
		Representation: hpo.Representation{Bounds: bounds, Std: std},
	})
	if err != nil {
		return nil, fmt.Errorf("nas: NAS campaign: %w", err)
	}
	out.NAS = nasRes

	out.FixedFront = fixed.ParetoFront()
	out.NASFront = nasRes.ParetoFront()
	out.FixedHV = nsga2.Hypervolume2D(out.FixedFront, hvRef)
	out.NASHV = nsga2.Hypervolume2D(out.NASFront, hvRef)

	ref := float64(PaperArchitecture().ParamCountEstimate())
	for _, ind := range out.NASFront {
		p, err := Decode(ind.Genome)
		if err != nil {
			continue
		}
		out.BestNASParams = append(out.BestNASParams, p)
		out.FrontierParamCountsRatio = append(out.FrontierParamCountsRatio,
			float64(p.ParamCountEstimate())/ref)
	}
	return out, nil
}

// Render formats the comparison.
func (r *CompareResult) Render() string {
	var b strings.Builder
	b.WriteString("NAS extension (§4 future work): architecture search vs. fixed {25,50,100}/{240,240,240}\n\n")
	fmt.Fprintf(&b, "fixed-architecture frontier: %d points, hypervolume %.6f\n", len(r.FixedFront), r.FixedHV)
	fmt.Fprintf(&b, "NAS (11-gene) frontier:      %d points, hypervolume %.6f\n", len(r.NASFront), r.NASHV)
	if r.NASHV > r.FixedHV {
		fmt.Fprintf(&b, "NAS improves frontier hypervolume by %.2f%%\n", 100*(r.NASHV/r.FixedHV-1))
	} else {
		fmt.Fprintf(&b, "NAS does not improve the frontier (%.2f%%)\n", 100*(r.NASHV/r.FixedHV-1))
	}
	b.WriteString("\nNAS frontier architectures:\n")
	for i, p := range r.BestNASParams {
		fmt.Fprintf(&b, "  %2d  %.2fx params  emb=%v fit=%v  (%s)\n",
			i+1, r.FrontierParamCountsRatio[i], p.EmbeddingSizes(), p.FittingSizes(), p.HParams)
	}
	return b.String()
}
