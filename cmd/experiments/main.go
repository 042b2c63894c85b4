// Command experiments regenerates the paper's tables and figures from a
// fresh campaign against the Summit-training surrogate.
//
// Usage:
//
//	experiments [-exp all|table1|fig1|fig2|table2|fig3|table3|failures|
//	                 convergence|correlations|ablation|baselines|scaling]
//	            [-runs 5] [-pop 100] [-gens 6] [-seed 2023]
//
// With defaults it reproduces the full paper scale: 5 independent NSGA-II
// runs × 100 individuals × 7 evaluation rounds = 3500 simulated trainings.
// table1, ablation, baselines and scaling do not read that campaign and
// skip it (and with it -png).  An unknown -exp, -runs or -pop below 1, or
// -gens below 0 exits 2 before any work.
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
)

// campaignExps are the -exp values experiments.Render prints, in its
// print order ("all" prints every one); all but table1 need the paper
// campaign.
var campaignExps = []string{"all", "table1", "fig1", "fig2", "table2", "fig3", "table3", "failures", "convergence", "correlations"}

// standaloneExps are the -exp values that never read the paper campaign.
var standaloneExps = []string{"ablation", "baselines", "scaling"}

// expNames lists every -exp value, campaign ones first.
var expNames = strings.Join(slices.Concat(campaignExps, standaloneExps), ", ")

// checkFlags rejects an -exp value or a campaign size that no experiment
// can run.
func checkFlags(exp string, runs, pop, gens int) error {
	switch {
	case !slices.Contains(campaignExps, exp) && !slices.Contains(standaloneExps, exp):
		return fmt.Errorf("unknown -exp %q; valid: %s", exp, expNames)
	case runs < 1:
		return fmt.Errorf("-runs %d: need at least 1", runs)
	case pop < 1:
		return fmt.Errorf("-pop %d: need at least 1", pop)
	case gens < 0:
		return fmt.Errorf("-gens %d: need at least 0", gens)
	}
	return nil
}

func main() {
	log.SetFlags(0)
	exp := flag.String("exp", "all", "experiment to regenerate: "+expNames)
	runs := flag.Int("runs", 5, "independent EA runs (paper: 5)")
	pop := flag.Int("pop", 100, "population size (paper: 100)")
	gens := flag.Int("gens", 6, "offspring generations (paper: 6)")
	seed := flag.Int64("seed", 2023, "campaign base seed")
	par := flag.Int("par", 8, "parallel evaluations per run")
	pngDir := flag.String("png", "", "also write Fig. 1/2 level plots as PNGs into this directory")
	flag.Parse()

	if err := checkFlags(*exp, *runs, *pop, *gens); err != nil {
		fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
		os.Exit(2)
	}
	if *exp == "table1" {
		fmt.Print(experiments.RenderTable1())
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
	fmt.Print(text)
	if err != nil {
		log.Fatal(err)
	}
}
