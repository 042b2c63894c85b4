// Command train is the `dp train` substitute: it reads a DeePMD-style
// input.json, loads the referenced datasets, trains a deep-potential
// model in-process and writes lcurve.out next to the input — the exact
// artifact the paper's fitness extraction reads (§2.2.4).
//
// Usage:
//
//	train -input run/input.json [-workers 6] [-steps 0] [-valframes 8]
//	      [-data-dir dir] [-cache-bytes N] [-prefetch N]
//
// -steps, if positive, truncates numb_steps for reduced-scale runs.
//
// With -data-dir the train/ and val/ system directories under it are
// streamed out-of-core through a byte-budgeted LRU frame cache instead
// of being materialized in memory; training output is bit-identical to
// the in-memory path.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"path/filepath"

	"repro/internal/dataset"
	"repro/internal/dataset/stream"
	"repro/internal/deepmd"
	"repro/internal/hpo"
	"repro/internal/nn/blas"
)

func main() {
	log.SetFlags(0)
	input := flag.String("input", "input.json", "path to input.json")
	workers := flag.Int("workers", 6, "simulated data-parallel workers (paper: 6 GPUs)")
	steps := flag.Int("steps", 0, "override numb_steps (0 = use input.json)")
	valFrames := flag.Int("valframes", 8, "validation frames per lcurve evaluation")
	dataDir := flag.String("data-dir", "", "stream train/ and val/ system dirs under this path out-of-core (instead of loading the input.json systems in memory)")
	cacheBytes := flag.Int64("cache-bytes", stream.DefaultCacheBytes, "LRU frame-cache budget per streamed system, in bytes")
	prefetch := flag.Int("prefetch", 64, "prefetch queue depth for streamed systems (0 = synchronous shard reads)")
	flag.Parse()

	in, err := deepmd.ParseInputFile(*input)
	if err != nil {
		log.Fatalf("parsing %s: %v", *input, err)
	}
	if err := in.Validate(); err != nil {
		log.Fatalf("invalid input.json: %v", err)
	}
	runDir := filepath.Dir(*input)

	var trainSrc, valSrc deepmd.FrameSource
	var trainStore *stream.Store
	if *dataDir != "" {
		opts := stream.Options{CacheBytes: *cacheBytes, Prefetch: *prefetch}
		trainStore, err = stream.Open(filepath.Join(*dataDir, "train"), opts)
		if err != nil {
			log.Fatalf("opening streamed training data: %v", err)
		}
		defer trainStore.Close()
		valStore, err := stream.Open(filepath.Join(*dataDir, "val"), opts)
		if err != nil {
			log.Fatalf("opening streamed validation data: %v", err)
		}
		defer valStore.Close()
		fmt.Printf("streaming %d training and %d validation frames (%d atoms); cache budget %d B, dataset %d B\n",
			trainStore.Len(), valStore.Len(), len(trainStore.AtomTypes()),
			*cacheBytes, trainStore.FrameBytes())
		trainSrc, valSrc = trainStore, valStore
	} else {
		if len(in.Training.Systems) == 0 || len(in.Training.ValidationData.Systems) == 0 {
			log.Fatal("input.json must reference training and validation systems")
		}
		trainSet, err := dataset.Load(resolve(runDir, in.Training.Systems[0]))
		if err != nil {
			log.Fatalf("loading training data: %v", err)
		}
		valSet, err := dataset.Load(resolve(runDir, in.Training.ValidationData.Systems[0]))
		if err != nil {
			log.Fatalf("loading validation data: %v", err)
		}
		fmt.Printf("loaded %d training and %d validation frames (%d atoms)\n",
			trainSet.Len(), valSet.Len(), trainSet.NAtoms())
		trainSrc, valSrc = trainSet, valSet
	}

	rt := &hpo.RealTrainer{
		Train: trainSrc, Val: valSrc,
		Workers: *workers, StepsOverride: *steps, ValFrames: *valFrames,
	}
	if err := rt.TrainRun(context.Background(), *input, runDir); err != nil {
		log.Fatalf("training: %v", err)
	}
	if trainStore != nil {
		st := trainStore.Stats()
		fmt.Printf("stream: %d hits, %d misses, %d evictions, %d prefetched (%d B cached)\n",
			st.Hits, st.Misses, st.Evictions, st.Prefetched, st.CachedBytes)
	}
	rmseE, rmseF, err := deepmd.FinalLosses(filepath.Join(runDir, "lcurve.out"))
	if err != nil {
		log.Fatalf("reading lcurve.out: %v", err)
	}
	fmt.Printf("final rmse_e_val = %.6g eV/atom, rmse_f_val = %.6g eV/Å\n", rmseE, rmseF)
	// Which GEMM kernels ran: the learning curve is the same bits either
	// way, a timing is not comparable without it.
	fmt.Printf("gemm kernels: %s\n", blas.Impl())
}

// resolve joins relative dataset paths against the run directory.
func resolve(runDir, p string) string {
	if filepath.IsAbs(p) {
		return p
	}
	return filepath.Join(runDir, p)
}
