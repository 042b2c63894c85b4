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
// summary.
//
// Usage:
//
//	hpo [-backend surrogate|real] [-runs 5] [-pop 100] [-gens 6] [-seed 2023]
//	    [-data data/] [-steps 200] [-workers 6] [-out results.csv]
//	    [-data-dir dir] [-cache-bytes N] [-prefetch N]
//
// With -data-dir the real backend streams the train/ and val/ system
// directories out-of-core through a byte-budgeted LRU frame cache
// (bit-identical to -data's in-memory loading).
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"time"

	"repro/internal/dataset"
	"repro/internal/dataset/stream"
	"repro/internal/deepmd"
	"repro/internal/ea"
	"repro/internal/hpo"
	"repro/internal/surrogate"
)

func main() {
	log.SetFlags(0)
	backend := flag.String("backend", "surrogate", "evaluation backend: surrogate or real")
	runs := flag.Int("runs", 5, "independent EA runs")
	pop := flag.Int("pop", 100, "population size")
	gens := flag.Int("gens", 6, "offspring generations")
	seed := flag.Int64("seed", 2023, "base seed")
	par := flag.Int("par", 8, "parallel evaluations")
	dataDir := flag.String("data", "data", "dataset directory (real backend; expects train/ and val/)")
	streamDir := flag.String("data-dir", "", "stream datasets out-of-core from this directory (real backend; expects train/ and val/; overrides -data)")
	cacheBytes := flag.Int64("cache-bytes", stream.DefaultCacheBytes, "LRU frame-cache budget per streamed system, in bytes")
	prefetch := flag.Int("prefetch", 64, "prefetch queue depth for streamed systems (0 = synchronous shard reads)")
	steps := flag.Int("steps", 200, "training steps per evaluation (real backend)")
	workers := flag.Int("workers", 6, "simulated data-parallel workers (real backend)")
	out := flag.String("out", "", "CSV output path (default stdout)")
	saveJSON := flag.String("save", "", "also save the full campaign (every generation) as JSON")
	timeout := flag.Duration("timeout", 2*time.Hour, "per-evaluation limit (paper: 2h)")
	noMemo := flag.Bool("no-memo", false, "disable genome-keyed fitness memoization")
	flag.Parse()

	var evaluator ea.Evaluator
	switch *backend {
	case "surrogate":
		evaluator = surrogate.NewEvaluator(surrogate.Config{Seed: *seed})
	case "real":
		trainPath, valPath := *dataDir+"/train", *dataDir+"/val"
		var trainSrc, valSrc deepmd.FrameSource
		if *streamDir != "" {
			// Out-of-core: stream shards through the byte-budgeted LRU cache
			// instead of materializing the systems; training is bit-identical.
			trainPath, valPath = filepath.Join(*streamDir, "train"), filepath.Join(*streamDir, "val")
			opts := stream.Options{CacheBytes: *cacheBytes, Prefetch: *prefetch}
			ts, err := stream.Open(trainPath, opts)
			if err != nil {
				log.Fatalf("opening %s: %v (run mdgen first)", trainPath, err)
			}
			defer ts.Close()
			vs, err := stream.Open(valPath, opts)
			if err != nil {
				log.Fatalf("opening %s: %v", valPath, err)
			}
			defer vs.Close()
			trainSrc, valSrc = ts, vs
		} else {
			trainSet, err := dataset.Load(trainPath)
			if err != nil {
				log.Fatalf("loading %s: %v (run mdgen first)", trainPath, err)
			}
			valSet, err := dataset.Load(valPath)
			if err != nil {
				log.Fatalf("loading %s: %v", valPath, err)
			}
			trainSrc, valSrc = trainSet, valSet
		}
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
	// re-train nothing new; serve them from the memo cache unless opted
	// out.
	var memo *ea.MemoEvaluator
	if !*noMemo {
		memo = ea.NewMemoEvaluator(evaluator)
		evaluator = memo
	}

	fmt.Fprintf(os.Stderr, "hpo: backend=%s runs=%d pop=%d gens=%d (%d evaluations)\n",
		*backend, *runs, *pop, *gens, *runs**pop*(*gens+1))
	start := time.Now()
	res, err := hpo.RunCampaign(context.Background(), hpo.CampaignConfig{
		Runs: *runs, PopSize: *pop, Generations: *gens,
		Evaluator: evaluator, Parallelism: *par,
		EvalTimeout: *timeout, AnnealFactor: 0.85, BaseSeed: *seed,
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
	if memo != nil {
		st := memo.Stats()
		fmt.Fprintf(os.Stderr, "hpo: memo cache: %d hits, %d misses, %d entries\n",
			st.Hits, st.Misses, st.Entries)
	}

	if *saveJSON != "" {
		if err := hpo.SaveCampaignFile(*saveJSON, res); err != nil {
			log.Fatalf("saving campaign: %v", err)
		}
		fmt.Fprintf(os.Stderr, "hpo: saved full campaign to %s\n", *saveJSON)
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
