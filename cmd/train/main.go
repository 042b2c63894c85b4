// Command train is the `dp train` substitute: it reads a DeePMD-style
// input.json, streams the training and validation systems it names,
// trains a deep-potential model in-process and writes lcurve.out next to
// the input — the exact artifact the paper's fitness extraction reads
// (§2.2.4 item 4c).  It then reads lcurve.out back and prints its
// summary and two log-scale charts of the validation losses over the
// training steps.
//
// Usage:
//
//	train -input run/input.json [-workers 6] [-steps 0] [-valframes 8]
//	      [-cache-bytes N]
//
// -steps, if positive, truncates numb_steps for reduced-scale runs;
// -workers below 1 or -steps below 0 exit 2 before any work.
//
// The systems (paths relative to input.json's directory) are read
// through stream.Open: a frame is a cache hit or one shard read, behind
// a byte-budgeted LRU frame cache (-cache-bytes 0 means
// stream.DefaultCacheBytes), so a set larger than memory trains with the
// same lcurve.out bytes as one the cache holds whole.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"math"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/dataset/stream"
	"repro/internal/deepmd"
	"repro/internal/hpo"
	"repro/internal/nn/blas"
)

// checkFlags rejects a worker count or a step override no training can
// run.
func checkFlags(workers, steps int) error {
	switch {
	case workers < 1:
		return fmt.Errorf("-workers %d: need at least 1", workers)
	case steps < 0:
		return fmt.Errorf("-steps %d: need at least 0", steps)
	}
	return nil
}

func main() {
	log.SetFlags(0)
	input := flag.String("input", "input.json", "path to input.json")
	workers := flag.Int("workers", 6, "simulated data-parallel workers (paper: 6 GPUs)")
	steps := flag.Int("steps", 0, "override numb_steps (0 = use input.json)")
	valFrames := flag.Int("valframes", 8, "validation frames per lcurve evaluation")
	cacheBytes := flag.Int64("cache-bytes", stream.DefaultCacheBytes, "LRU frame-cache budget per streamed system, in bytes")
	flag.Parse()

	if err := checkFlags(*workers, *steps); err != nil {
		fmt.Fprintf(os.Stderr, "train: %v\n", err)
		os.Exit(2)
	}

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
	opts := stream.Options{CacheBytes: *cacheBytes}
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
		trainStore.Stats().CacheBudget, trainStore.FrameBytes())

	rt := &hpo.RealTrainer{
		Train: trainStore, Val: valStore,
		Workers: *workers, StepsOverride: *steps, ValFrames: *valFrames,
	}
	if err := rt.TrainRun(context.Background(), *input, runDir); err != nil {
		log.Fatalf("training: %v", err)
	}
	st := trainStore.Stats()
	fmt.Printf("stream: %d hits, %d misses, %d evictions (%d B cached)\n",
		st.Hits, st.Misses, st.Evictions, st.CachedBytes)
	// Which GEMM kernels ran: the learning curve is the same bits either
	// way, a timing is not comparable without it.
	fmt.Printf("gemm kernels: %s\n", blas.Impl())

	recs, err := deepmd.ReadLCurveFile(filepath.Join(runDir, "lcurve.out"))
	if err != nil {
		log.Fatalf("reading lcurve.out: %v", err)
	}
	if len(recs) == 0 {
		log.Fatal("lcurve.out has no data rows")
	}
	last := recs[len(recs)-1]
	fmt.Printf("%d records, steps %d..%d\n", len(recs), recs[0].Step, last.Step)
	fmt.Printf("final: rmse_e_val=%.6g eV/atom  rmse_f_val=%.6g eV/Å  lr=%.3g\n",
		last.RmseEVal, last.RmseFVal, last.LR)
	const width, height = 70, 16
	fmt.Println("\nrmse_f_val over training (log scale):")
	fmt.Print(chart(recs, func(r deepmd.LCurveRecord) float64 { return r.RmseFVal }, width, height))
	fmt.Println("\nrmse_e_val over training (log scale):")
	fmt.Print(chart(recs, func(r deepmd.LCurveRecord) float64 { return r.RmseEVal }, width, height))
}

// resolve joins relative dataset paths against the run directory.
func resolve(runDir, p string) string {
	if filepath.IsAbs(p) {
		return p
	}
	return filepath.Join(runDir, p)
}

// chart renders one series as ASCII, y on a log axis.
func chart(recs []deepmd.LCurveRecord, get func(deepmd.LCurveRecord) float64, width, height int) string {
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, r := range recs {
		v := get(r)
		if !plottable(v) {
			continue
		}
		lo = math.Min(lo, v)
		hi = math.Max(hi, v)
	}
	if !(hi > 0) {
		return "(series constant or empty)\n"
	}
	top, bottom := axisLabels(hi, lo)
	if top == bottom {
		return "(series constant or empty)\n"
	}
	llo, lhi := math.Log10(lo), math.Log10(hi)
	grid := make([][]byte, height)
	for i := range grid {
		grid[i] = []byte(strings.Repeat(" ", width))
	}
	for i, r := range recs {
		v := get(r)
		if !plottable(v) {
			continue
		}
		x := i * (width - 1) / max(len(recs)-1, 1)
		y := int((math.Log10(v) - llo) / (lhi - llo) * float64(height-1))
		if y < 0 {
			y = 0
		}
		if y >= height {
			y = height - 1
		}
		grid[height-1-y][x] = '*'
	}
	var b strings.Builder
	for i, row := range grid {
		label := ""
		switch i {
		case 0:
			label = top
		case height - 1:
			label = bottom
		}
		fmt.Fprintf(&b, "%10s |%s|\n", label, row)
	}
	fmt.Fprintf(&b, "%10s  %-*d%*d\n", "step", width-8, recs[0].Step, 8, recs[len(recs)-1].Step)
	return b.String()
}

// axisLabels formats the top and bottom y labels with the fewest digits,
// three significant at least, that tell hi from lo and still fit the
// 10-column label.  They print the same if no such precision does.
func axisLabels(hi, lo float64) (top, bottom string) {
	for prec := 2; ; prec++ {
		top, bottom = fmt.Sprintf("%.*e", prec, hi), fmt.Sprintf("%.*e", prec, lo)
		if top != bottom || max(len(top), len(bottom)) >= 10 {
			return top, bottom
		}
	}
}

// plottable reports whether v has a place on a log axis: positive and
// finite (NaN compares false).  Finding the range and plotting both ask
// it, so a diverged +Inf loss is left out instead of clamped to a row.
func plottable(v float64) bool {
	return v > 0 && !math.IsInf(v, 1)
}
