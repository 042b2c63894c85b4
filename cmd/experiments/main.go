// Command experiments regenerates the paper's tables and figures from a
// fresh campaign against the Summit-training surrogate.
//
// Usage:
//
//	experiments [-exp all|table1|fig1|fig2|table2|fig3|table3|failures|
//	                 convergence|correlations|ablation|baselines|scaling|sensitivity]
//	            [-runs 5] [-pop 100] [-gens 6] [-seed 2023]
//
// With defaults it reproduces the full paper scale: 5 independent NSGA-II
// runs × 100 individuals × 7 evaluation rounds = 3500 simulated trainings.
// table1, sensitivity, ablation, baselines and scaling do not read that
// campaign and skip it (and with it -png); an unknown -exp exits 2 before
// any work.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"slices"
	"strings"
	"time"

	"repro/internal/experiments"
	"repro/internal/hpo"
	"repro/internal/sensitivity"
	"repro/internal/surrogate"
)

// campaignExps are the -exp values experiments.Render prints, in its
// print order ("all" prints every one); all but table1 need the paper
// campaign.
var campaignExps = []string{"all", "table1", "fig1", "fig2", "table2", "fig3", "table3", "failures", "convergence", "correlations"}

// standaloneExps are the -exp values that never read the paper campaign.
var standaloneExps = []string{"ablation", "baselines", "scaling", "sensitivity"}

func main() {
	log.SetFlags(0)
	exp := flag.String("exp", "all", "experiment to regenerate: all, table1, fig1, fig2, table2, fig3, table3, failures, convergence, correlations, ablation, baselines, scaling, sensitivity")
	runs := flag.Int("runs", 5, "independent EA runs (paper: 5)")
	pop := flag.Int("pop", 100, "population size (paper: 100)")
	gens := flag.Int("gens", 6, "offspring generations (paper: 6)")
	seed := flag.Int64("seed", 2023, "campaign base seed")
	par := flag.Int("par", 8, "parallel evaluations per run")
	pngDir := flag.String("png", "", "also write Fig. 1/2 level plots as PNGs into this directory")
	flag.Parse()

	if !slices.Contains(campaignExps, *exp) && !slices.Contains(standaloneExps, *exp) {
		fmt.Fprintf(os.Stderr, "experiments: unknown -exp %q; valid: %s, %s\n",
			*exp, strings.Join(campaignExps, ", "), strings.Join(standaloneExps, ", "))
		os.Exit(2)
	}
	if *exp == "table1" {
		fmt.Print(experiments.RenderTable1())
		return
	}
	if *exp == "sensitivity" {
		// The §2.2.1 pre-campaign screening: no EA needed.
		ev := surrogate.NewEvaluator(surrogate.Config{Seed: *seed, NoiseScale: -1, DisableFailures: true})
		rep := hpo.PaperRepresentation()
		mor, err := sensitivity.Morris(context.Background(), ev, rep.Bounds, hpo.GeneNames[:], 40, 8, 2, *seed)
		if err != nil {
			log.Fatalf("morris: %v", err)
		}
		fmt.Print(sensitivity.RenderMorris(mor, []string{"energy", "force"}))
		baseline, err := hpo.Encode(hpo.HParams{
			StartLR: 0.004, StopLR: 5e-5, RCut: 9, RCutSmth: 3,
			ScaleByWorker: "none", DescActiv: "tanh", FittingActiv: "tanh",
		})
		if err != nil {
			log.Fatal(err)
		}
		oat, err := sensitivity.OAT(context.Background(), ev, rep.Bounds, hpo.GeneNames[:], baseline, 13, 2)
		if err != nil {
			log.Fatalf("oat: %v", err)
		}
		fmt.Println()
		fmt.Print(sensitivity.RenderOAT(oat, []string{"energy", "force"}))
		return
	}

	opts := experiments.Options{
		Runs: *runs, PopSize: *pop, Generations: *gens, Seed: *seed, Parallelism: *par,
	}
	show := func(name, text string) {
		fmt.Printf("==== %s ====\n%s\n", name, text)
	}
	switch *exp {
	case "ablation":
		abl, err := experiments.PipelineAblation(context.Background(), opts)
		if err != nil {
			log.Fatalf("ablation: %v", err)
		}
		show("Ablation", abl.Render())
		return
	case "baselines":
		cmp, err := experiments.CompareBaselines(context.Background(), opts)
		if err != nil {
			log.Fatalf("baselines: %v", err)
		}
		show("Baselines", cmp.Render())
		return
	case "scaling":
		sc, err := experiments.ParallelScaling(context.Background(),
			[]int{1, 2, 4, 8, 16}, *pop, 2, 10*time.Millisecond, *seed)
		if err != nil {
			log.Fatalf("scaling: %v", err)
		}
		show("Parallel scaling", sc.Render())
		return
	}

	fmt.Fprintf(os.Stderr, "running campaign: %d runs × %d individuals × %d generations…\n",
		opts.Runs, opts.PopSize, opts.Generations+1)
	c, err := experiments.RunPaperCampaign(context.Background(), opts)
	if err != nil {
		log.Fatalf("campaign failed: %v", err)
	}
	if *pngDir != "" {
		if err := os.MkdirAll(*pngDir, 0o755); err != nil {
			log.Fatalf("creating %s: %v", *pngDir, err)
		}
		for g, h := range experiments.Fig1(c).Hists {
			path := fmt.Sprintf("%s/fig1_gen%d.png", *pngDir, g)
			if err := h.WritePNGFile(path, 8); err != nil {
				log.Fatalf("writing %s: %v", path, err)
			}
		}
		if err := experiments.Fig2Hist(c).WritePNGFile(*pngDir+"/fig2_pool.png", 10); err != nil {
			log.Fatalf("writing fig2 png: %v", err)
		}
		fmt.Fprintf(os.Stderr, "wrote level-plot PNGs to %s\n", *pngDir)
	}
	text, err := experiments.Render(c, *exp)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(text)
}
