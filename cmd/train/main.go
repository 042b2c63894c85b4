// Command train is the `dp train` substitute: it reads a DeePMD-style
// input.json, streams the training and validation systems it names,
// trains a deep-potential model in-process and writes lcurve.out next to
// the input — the exact artifact the paper's fitness extraction reads
// (§2.2.4).
//
// Usage:
//
//	train -input run/input.json [-workers 6] [-steps 0] [-valframes 8]
//	      [-cache-bytes N] [-prefetch N]
//
// -steps, if positive, truncates numb_steps for reduced-scale runs.
//
// The systems (paths relative to input.json's directory) are read
// through stream.Open: frames come off their shards on demand, behind a
// byte-budgeted LRU frame cache, so a set larger than memory trains with
// the same lcurve.out bytes as one the cache holds whole.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"path/filepath"

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

	if len(in.Training.Systems) == 0 || len(in.Training.ValidationData.Systems) == 0 {
		log.Fatal("input.json must reference training and validation systems")
	}
	opts := stream.Options{CacheBytes: *cacheBytes, Prefetch: *prefetch}
	trainStore, err := stream.Open(resolve(runDir, in.Training.Systems[0]), opts)
	if err != nil {
		log.Fatalf("opening training data: %v", err)
	}
	defer trainStore.Close()
	valStore, err := stream.Open(resolve(runDir, in.Training.ValidationData.Systems[0]), opts)
	if err != nil {
		log.Fatalf("opening validation data: %v", err)
	}
	defer valStore.Close()
	fmt.Printf("streaming %d training and %d validation frames (%d atoms); cache budget %d B, dataset %d B\n",
		trainStore.Len(), valStore.Len(), len(trainStore.AtomTypes()),
		*cacheBytes, trainStore.FrameBytes())

	rt := &hpo.RealTrainer{
		Train: trainStore, Val: valStore,
		Workers: *workers, StepsOverride: *steps, ValFrames: *valFrames,
	}
	if err := rt.TrainRun(context.Background(), *input, runDir); err != nil {
		log.Fatalf("training: %v", err)
	}
	st := trainStore.Stats()
	fmt.Printf("stream: %d hits, %d misses, %d evictions, %d prefetched (%d B cached)\n",
		st.Hits, st.Misses, st.Evictions, st.Prefetched, st.CachedBytes)
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
