package stream

import (
	"math/rand"
	"os"
	"testing"

	"repro/internal/dataset"
)

func benchStore(b *testing.B, natoms, nframes int, budgetFrames int64) *Store {
	b.Helper()
	d := &dataset.Dataset{Types: make([]int, natoms)}
	rng := rand.New(rand.NewSource(1))
	for i := range d.Types {
		d.Types[i] = i % 3
	}
	for f := 0; f < nframes; f++ {
		fr := dataset.Frame{
			Coord: make([]float64, 3*natoms), Force: make([]float64, 3*natoms),
			Energy: rng.NormFloat64(), Box: 10,
		}
		for k := range fr.Coord {
			fr.Coord[k], fr.Force[k] = rng.Float64(), rng.Float64()
		}
		d.Frames = append(d.Frames, fr)
	}
	dir, err := os.MkdirTemp("", "streambench-*")
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { os.RemoveAll(dir) })
	if err := d.Save(dir, 8); err != nil {
		b.Fatal(err)
	}
	s, err := Open(dir, Options{CacheBytes: budgetFrames * frameBytes(3*natoms)})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { s.Close() })
	return s
}

// BenchmarkFrameHit is the resident path: every read served from the LRU
// cache — the cost training pays per sample when the working set fits.
func BenchmarkFrameHit(b *testing.B) {
	s := benchStore(b, 160, 16, 32)
	for i := 0; i < s.Len(); i++ {
		if _, err := s.Frame(i); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Frame(i % s.Len()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFrameMiss is the out-of-core path: a one-frame budget makes
// every alternating read a shard re-read — positioned npy row I/O plus
// frame allocation, what a training step pays per frame the cache lacks.
func BenchmarkFrameMiss(b *testing.B) {
	s := benchStore(b, 160, 16, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Frame(i % 2); err != nil {
			b.Fatal(err)
		}
	}
}
