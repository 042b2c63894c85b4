package surrogate

import (
	"math"
	"math/rand"
	"testing"
)

// noiseKeys are the seeds where math/rand's reduction has an edge: zero
// (replaced by 89482311), the modulus 2³¹−1 and its negation (both
// reduce to zero), 2³¹, the int64 extremes, and the replacement itself.
var noiseKeys = []int64{
	0, 1, -1, 1<<31 - 1, -(1<<31 - 1), 1 << 31, -(1 << 31),
	math.MinInt64, math.MaxInt64, 89482311, -89482311,
}

// drawMixed draws n values from r, cycling Float64, NormFloat64 and
// Int63 by a pattern taken from the key, and returns their bits.
func drawMixed(r *rand.Rand, key int64, n int) []uint64 {
	out := make([]uint64, n)
	pattern := uint64(key)
	for i := range out {
		switch (pattern >> (uint(i) % 61)) % 3 {
		case 0:
			out[i] = math.Float64bits(r.Float64())
		case 1:
			out[i] = math.Float64bits(r.NormFloat64())
		default:
			out[i] = uint64(r.Int63())
		}
	}
	return out
}

// TestNoiseSourceMatchesStdlib holds the lazily seeded source to
// rand.NewSource draw for draw: on every edge key and 3 000 random ones,
// for short streams (what an evaluation draws) and for streams long
// enough to wrap the 607-word register several times, with the source
// reseeded in place between keys as the pool does.
func TestNoiseSourceMatchesStdlib(t *testing.T) {
	keys := append([]int64(nil), noiseKeys...)
	rng := rand.New(rand.NewSource(20))
	for i := 0; i < 3000; i++ {
		keys = append(keys, int64(rng.Uint64()))
	}
	got := rand.New(new(noiseSource))
	for i, key := range keys {
		n := 8
		if i < len(noiseKeys) || i%100 == 0 {
			n = 5000
		}
		got.Seed(key)
		want := drawMixed(rand.New(rand.NewSource(key)), key, n)
		have := drawMixed(got, key, n)
		for j := range want {
			if have[j] != want[j] {
				t.Fatalf("key %d: draw %d = %#x, rand.NewSource gives %#x", key, j, have[j], want[j])
			}
		}
	}
}

// TestNoiseSourceUint64MatchesStdlib compares the raw 64-bit outputs,
// which carry the bit Int63 masks off.
func TestNoiseSourceUint64MatchesStdlib(t *testing.T) {
	var s noiseSource
	for _, key := range noiseKeys {
		s.Seed(key)
		ref := rand.NewSource(key).(rand.Source64)
		for j := 0; j < 2000; j++ {
			if got, want := s.Uint64(), ref.Uint64(); got != want {
				t.Fatalf("key %d: Uint64 %d = %#x, want %#x", key, j, got, want)
			}
		}
	}
}

// TestEvaluateParamsDoesNotAllocate pins the pooled, lazily seeded
// evaluation at zero allocations.
func TestEvaluateParamsDoesNotAllocate(t *testing.T) {
	s := NewEvaluator(Config{Seed: 9})
	h := goodParams()
	key := int64(0)
	if got := testing.AllocsPerRun(1000, func() { key++; s.EvaluateParams(h, key) }); got != 0 {
		t.Errorf("EvaluateParams: %v allocs/op, want 0", got)
	}
}
