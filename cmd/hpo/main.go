// Command hpo runs the NSGA-II hyperparameter-optimization campaign.  Two
// evaluation backends are available:
//
//   - surrogate (default): the calibrated Summit-training response
//     surface — paper scale finishes in seconds.
//   - real: genuine in-process deep-potential trainings on an MD-generated
//     dataset (use small -pop/-gens/-steps; every evaluation trains a
//     network).
//
// Results are printed as CSV (one row per final solution) plus a frontier
// summary.  The on_frontier column is 1 on the rows of the Pareto front:
// nsga2.NonDominated over the last generations of every run, pooled.
// Every evaluation is capped at the paper's two hours
// (ea.PaperEvalTimeout); one that runs past it gets MAXINT fitness.
//
// Usage:
//
//	hpo [-backend surrogate|real] [-runs 5] [-pop 100] [-gens 6] [-seed 2023]
//	    [-data data/] [-steps 200] [-workers 6] [-out results.csv]
//	    [-cache-bytes N]
//
// -runs, -pop, -par, -steps or -workers below 1, or -gens below 0, exit 2
// before any work.
//
// The real backend streams the train/ and val/ system directories under
// -data through stream.Open: a frame is a cache hit or one shard read,
// behind a byte-budgeted LRU frame cache shared by every evaluation.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"time"

	"repro/internal/dataset/stream"
	"repro/internal/ea"
	"repro/internal/hpo"
	"repro/internal/nsga2"
	"repro/internal/surrogate"
)

// checkFlags rejects a campaign size, parallelism or training length
// that no campaign can run.
func checkFlags(runs, pop, gens, par, steps, workers int) error {
	switch {
	case runs < 1:
		return fmt.Errorf("-runs %d: need at least 1", runs)
	case pop < 1:
		return fmt.Errorf("-pop %d: need at least 1", pop)
	case gens < 0:
		return fmt.Errorf("-gens %d: need at least 0", gens)
	case par < 1:
		return fmt.Errorf("-par %d: need at least 1", par)
	case steps < 1:
		return fmt.Errorf("-steps %d: need at least 1", steps)
	case workers < 1:
		return fmt.Errorf("-workers %d: need at least 1", workers)
	}
	return nil
}

func main() {
	log.SetFlags(0)
	backend := flag.String("backend", "surrogate", "evaluation backend: surrogate or real")
	runs := flag.Int("runs", 5, "independent EA runs")
	pop := flag.Int("pop", 100, "population size")
	gens := flag.Int("gens", 6, "offspring generations")
	seed := flag.Int64("seed", 2023, "base seed")
	par := flag.Int("par", 8, "parallel evaluations")
	dataDir := flag.String("data", "data", "dataset directory, streamed (real backend; expects train/ and val/)")
	cacheBytes := flag.Int64("cache-bytes", stream.DefaultCacheBytes, "LRU frame-cache budget per streamed system, in bytes")
	steps := flag.Int("steps", 200, "training steps per evaluation (real backend)")
	workers := flag.Int("workers", 6, "simulated data-parallel workers (real backend)")
	out := flag.String("out", "", "CSV output path (default stdout)")
	savePath := flag.String("save", "", "also save the full campaign (every generation) to this file as a campaign log")
	flag.Parse()

	if err := checkFlags(*runs, *pop, *gens, *par, *steps, *workers); err != nil {
		fmt.Fprintf(os.Stderr, "hpo: %v\n", err)
		os.Exit(2)
	}

	var evaluator ea.Evaluator
	switch *backend {
	case "surrogate":
		evaluator = surrogate.NewEvaluator(surrogate.Config{Seed: *seed})
	case "real":
		trainPath, valPath := filepath.Join(*dataDir, "train"), filepath.Join(*dataDir, "val")
		opts := stream.Options{CacheBytes: *cacheBytes}
		trainSrc, err := stream.Open(trainPath, opts)
		if err != nil {
			log.Fatalf("opening %s: %v (run mdgen first)", trainPath, err)
		}
		defer trainSrc.Close()
		valSrc, err := stream.Open(valPath, opts)
		if err != nil {
			log.Fatalf("opening %s: %v", valPath, err)
		}
		defer valSrc.Close()
		workDir, err := os.MkdirTemp("", "hpo-runs-*")
		if err != nil {
			log.Fatal(err)
		}
		defer os.RemoveAll(workDir)
		rt := &hpo.RealTrainer{
			Train: trainSrc, Val: valSrc,
			Workers: *workers, StepsOverride: *steps, ValFrames: 4,
		}
		evaluator = &hpo.WorkflowEvaluator{
			WorkDir: workDir,
			Steps:   *steps, DispFreq: max(*steps/4, 1), Seed: *seed,
			TrainDir: trainPath, ValDir: valPath,
			Trainer: hpo.TrainerFunc(rt.TrainRun),
		}
	default:
		log.Fatalf("unknown backend %q", *backend)
	}

	// Exact-duplicate genomes (unmutated clones, converged populations)
	// re-train nothing new: the memo cache serves them.
	memo := ea.NewMemoEvaluator(evaluator)

	fmt.Fprintf(os.Stderr, "hpo: backend=%s runs=%d pop=%d gens=%d (%d evaluations)\n",
		*backend, *runs, *pop, *gens, *runs**pop*(*gens+1))
	start := time.Now()
	res, err := hpo.RunCampaign(context.Background(), hpo.CampaignConfig{
		Runs: *runs, PopSize: *pop, Generations: *gens,
		Evaluator: memo, Parallelism: *par,
		EvalTimeout: ea.PaperEvalTimeout, AnnealFactor: nsga2.PaperAnnealFactor, BaseSeed: *seed,
		Observer: func(run, gen int, evaluated, survivors ea.Population) {
			fmt.Fprintf(os.Stderr, "  run %d gen %d: %d evaluated, %d failures\n",
				run, gen, len(evaluated), evaluated.Failures())
		},
	})
	if err != nil {
		log.Fatalf("campaign: %v", err)
	}
	fmt.Fprintf(os.Stderr, "hpo: done in %v; %d evaluations, %d failures\n",
		time.Since(start).Round(time.Millisecond), res.TotalEvaluations(), res.TotalFailures())
	st := memo.Stats()
	fmt.Fprintf(os.Stderr, "hpo: memo cache: %d hits, %d misses, %d entries\n",
		st.Hits, st.Misses, st.Entries)

	if *savePath != "" {
		if err := hpo.SaveCampaignFile(*savePath, res); err != nil {
			log.Fatalf("saving campaign: %v", err)
		}
		fmt.Fprintf(os.Stderr, "hpo: saved full campaign to %s\n", *savePath)
	}

	w := os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			log.Fatal(err)
		}
		defer f.Close()
		w = f
	}
	fmt.Fprintln(w, "energy_loss,force_loss,start_lr,stop_lr,rcut,rcut_smth,scale_by_worker,desc_activ_func,fitting_activ_func,on_frontier")
	frontSet := map[*ea.Individual]bool{}
	for _, ind := range res.ParetoFront() {
		frontSet[ind] = true
	}
	for _, ind := range res.LastGenerations() {
		if ind.Fitness.IsFailure() {
			continue
		}
		h, err := hpo.Decode(ind.Genome)
		if err != nil {
			continue
		}
		onFront := 0
		if frontSet[ind] {
			onFront = 1
		}
		fmt.Fprintf(w, "%.6g,%.6g,%.6g,%.6g,%.4f,%.4f,%s,%s,%s,%d\n",
			ind.Fitness[0], ind.Fitness[1], h.StartLR, h.StopLR, h.RCut, h.RCutSmth,
			h.ScaleByWorker, h.DescActiv, h.FittingActiv, onFront)
	}
}
