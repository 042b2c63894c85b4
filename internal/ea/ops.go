package ea

import (
	"math/rand"
)

// Stream is a pull-based, possibly infinite sequence of individuals: the Go
// rendering of LEAP's generator-function operator pipeline (§2.2.3,
// Listing 1).  Each call yields the next individual; ok=false means the
// stream is exhausted (finite sources only).
type Stream func() (ind *Individual, ok bool)

// Operator transforms a stream into another stream, so reproduction
// pipelines compose exactly like LEAP's toolz.pipe chain.
type Operator func(Stream) Stream

// Pipe threads a source stream through a sequence of operators.
func Pipe(src Stream, ops ...Operator) Stream {
	for _, op := range ops {
		src = op(src)
	}
	return src
}

// Source yields the population's members in order, then ends.
func Source(pop Population) Stream {
	i := 0
	return func() (*Individual, bool) {
		if i >= len(pop) {
			return nil, false
		}
		ind := pop[i]
		i++
		return ind, true
	}
}

// RandomSelection yields uniformly random members of pop forever, the
// parent-selection scheme in the paper's pipeline (ops.random_selection).
func RandomSelection(rng *rand.Rand, pop Population) Stream {
	if len(pop) == 0 {
		return func() (*Individual, bool) { return nil, false }
	}
	return func() (*Individual, bool) {
		return pop[rng.Intn(len(pop))], true
	}
}

// Clone is the ops.clone operator: every pulled individual is copied with a
// fresh UUID and cleared fitness, so mutation never aliases a parent.
func Clone() Operator {
	return func(src Stream) Stream {
		return func() (*Individual, bool) {
			ind, ok := src()
			if !ok {
				return nil, false
			}
			return ind.Clone(), true
		}
	}
}

// MutateGaussian applies isotropic Gaussian mutation — every gene is
// perturbed, matching expected_num_mutations='isotropic' in Listing 1 —
// with per-gene standard deviation read from the context at pull time (so
// annealing between generations is observed) and results clipped to hard
// bounds.
func MutateGaussian(rng *rand.Rand, ctx *Context, bounds Bounds) Operator {
	return func(src Stream) Stream {
		return func() (*Individual, bool) {
			ind, ok := src()
			if !ok {
				return nil, false
			}
			std := ctx.Std()
			for i := range ind.Genome {
				ind.Genome[i] += rng.NormFloat64() * std[i]
				ind.Genome[i] = bounds[i].Clamp(ind.Genome[i])
			}
			return ind, true
		}
	}
}

// Take pulls exactly n individuals from the stream.  It panics if the
// stream ends early, which indicates a misconfigured pipeline.
func Take(src Stream, n int) Population {
	out := make(Population, 0, n)
	for len(out) < n {
		ind, ok := src()
		if !ok {
			panic("ea: stream exhausted before yielding requested count")
		}
		out = append(out, ind)
	}
	return out
}

// SetBirth stamps each pulled individual with the given birth generation.
func SetBirth(gen int) Operator {
	return func(src Stream) Stream {
		return func() (*Individual, bool) {
			ind, ok := src()
			if !ok {
				return nil, false
			}
			ind.Birth = gen
			return ind, true
		}
	}
}
