package deepmd

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/dataset"
	"repro/internal/md"
)

func benchData(b *testing.B, frames int) *dataset.Dataset {
	b.Helper()
	rng := rand.New(rand.NewSource(1))
	species := []md.Species{md.Al, md.Cl, md.Cl, md.Cl, md.K, md.Cl}
	pot := md.NewPaperBMH(4.0)
	return dataset.Generate(rng, species, 7.0, 498, pot, 0.5, 50, 5, frames)
}

func BenchmarkEnergyForces(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	m, err := NewModel(rng, tinyModelConfig())
	if err != nil {
		b.Fatal(err)
	}
	d := benchData(b, 1)
	fr := &d.Frames[0]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.EnergyForces(fr.Coord, d.Types, fr.Box)
	}
}

// BenchmarkTrainStepByWorkers measures one optimizer step as the
// simulated data-parallel width grows (1, 2, 6 GPUs).
func BenchmarkTrainStepByWorkers(b *testing.B) {
	d := benchData(b, 8)
	train, val := d.Split(0.25)
	for _, workers := range []int{1, 2, 6} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			rng := rand.New(rand.NewSource(3))
			m, err := NewModel(rng, tinyModelConfig())
			if err != nil {
				b.Fatal(err)
			}
			cfg := TrainConfig{
				Steps: b.N, BatchSize: 1, StartLR: 0.001, StopLR: 1e-5,
				ScaleByWorker: "sqrt", Workers: workers,
				DispFreq: b.N + 1, // no validation inside the loop
				Seed:     4,
			}
			b.ReportAllocs()
			b.ResetTimer()
			if _, err := Train(context.Background(), m, train, val, cfg, nil); err != nil && err != ErrDiverged {
				b.Fatal(err)
			}
		})
	}
}

// BenchmarkTrainStepBatch measures one optimizer step of the fused
// gradient sweep at growing worker-batch sizes.  Per-frame cost is ns/op
// divided by batch.
func BenchmarkTrainStepBatch(b *testing.B) {
	d := benchData(b, 8)
	train, val := d.Split(0.25)
	for _, batch := range []int{1, 2, 4, 6} {
		b.Run(fmt.Sprintf("batch=%d", batch), func(b *testing.B) {
			rng := rand.New(rand.NewSource(3))
			m, err := NewModel(rng, tinyModelConfig())
			if err != nil {
				b.Fatal(err)
			}
			// StartLR is kept small enough that the run cannot diverge at
			// any b.N: an early ErrDiverged abort would leave the remaining
			// claimed iterations free and understate ns/op.
			cfg := TrainConfig{
				Steps: b.N, BatchSize: batch, StartLR: 1e-4, StopLR: 1e-6,
				ScaleByWorker: "sqrt", Workers: 1,
				DispFreq: b.N + 1, // no validation inside the loop
				Seed:     4,
			}
			b.ReportAllocs()
			b.ResetTimer()
			if _, err := Train(context.Background(), m, train, val, cfg, nil); err != nil && err != ErrDiverged {
				b.Fatal(err)
			}
		})
	}
}

func BenchmarkEvalErrors(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	m, _ := NewModel(rng, tinyModelConfig())
	d := benchData(b, 8)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		EvalErrors(m, d, 0)
	}
}

func BenchmarkParseInput(b *testing.B) {
	for i := 0; i < b.N; i++ {
		in, err := ParseInput(strings.NewReader(sampleInput))
		if err != nil {
			b.Fatal(err)
		}
		if err := in.Validate(); err != nil {
			b.Fatal(err)
		}
	}
}
