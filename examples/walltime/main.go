// Walltime: the multi-job campaign pattern behind the paper's Summit
// deployment — batch jobs were capped at 12 hours (§2.2.5), so a long
// campaign must save its state and carry on in the next submission.  This
// example runs "job 1" (3 of 6 generations), saves the campaign as a
// campaign log (campaign.log: a header line, then one JSON line per run
// and generation), then "job 2" loads the log and continues the campaign
// to 6 generations: the logged generations are replayed, not evaluated.
// It exits non-zero unless job 1 + job 2 ends on the same genomes and
// fitnesses as one uninterrupted 6-generation campaign.
//
//	go run ./examples/walltime
package main

import (
	"context"
	"fmt"
	"log"
	"os"
	"path/filepath"

	"repro/internal/ea"
	"repro/internal/hpo"
	"repro/internal/nsga2"
	"repro/internal/surrogate"
)

func main() {
	dir, err := os.MkdirTemp("", "walltime-*")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	checkpoint := filepath.Join(dir, "campaign.log")

	cfg := hpo.CampaignConfig{
		Runs: 2, PopSize: 50, Generations: 6,
		Evaluator:   surrogate.NewEvaluator(surrogate.Config{Seed: 99}),
		Parallelism: 8, AnnealFactor: nsga2.PaperAnnealFactor, BaseSeed: 99,
	}
	ctx := context.Background()

	// ---- Job 1: run until "walltime", then checkpoint. ----
	job1 := cfg
	job1.Generations = 3
	fmt.Println("job 1: running 2 runs × 4 evaluation rounds…")
	first, err := hpo.RunCampaign(ctx, job1)
	if err != nil {
		log.Fatal(err)
	}
	if err := hpo.SaveCampaignFile(checkpoint, first); err != nil {
		log.Fatal(err)
	}
	fi, err := os.Stat(checkpoint)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("job 1 done: %d evaluations, checkpoint %s (%d KiB)\n",
		first.TotalEvaluations(), checkpoint, fi.Size()/1024)
	ref := ea.Fitness{0.03, 0.6}
	hv1 := nsga2.Hypervolume2D(first.LastGenerations(), ref)
	fmt.Printf("job 1 frontier: %d points, hypervolume %.6f\n\n",
		len(first.ParetoFront()), hv1)

	// ---- Job 2: a fresh process loads the checkpoint and continues. ----
	fmt.Println("job 2: loading checkpoint, replaying it and running 3 more generations…")
	loaded, err := hpo.LoadCampaignFile(checkpoint)
	if err != nil {
		log.Fatal(err)
	}
	resumed, err := hpo.ContinueCampaign(ctx, cfg, loaded)
	if err != nil {
		log.Fatal(err)
	}
	hv2 := nsga2.Hypervolume2D(resumed.LastGenerations(), ref)
	fmt.Printf("job 2 done: %d total evaluations across both jobs\n", resumed.TotalEvaluations())
	fmt.Printf("job 2 frontier: %d points, hypervolume %.6f (Δ %+.2e)\n",
		len(resumed.ParetoFront()), hv2, hv2-hv1)

	fmt.Println("\nfinal frontier:")
	for i, ind := range resumed.ParetoFront() {
		h, _ := hpo.Decode(ind.Genome)
		fmt.Printf("  %2d energy=%.4f force=%.4f  %s\n", i+1, ind.Fitness[0], ind.Fitness[1], h)
	}

	// ---- The check: two jobs equal one that never stopped. ----
	whole, err := hpo.RunCampaign(ctx, cfg)
	if err != nil {
		log.Fatal(err)
	}
	// %v prints the shortest decimal that round-trips, so equal text is
	// equal bits.
	finals := func(c *hpo.CampaignResult) (s string) {
		for _, ind := range c.LastGenerations() {
			s += fmt.Sprintln(ind.Genome, ind.Fitness)
		}
		return s
	}
	if finals(resumed) != finals(whole) {
		log.Fatal("job 1 + job 2 ends on another population than the uninterrupted campaign")
	}
	fmt.Println("\njob 1 + job 2 ends on the uninterrupted campaign's genomes and fitnesses, bit for bit")
}
