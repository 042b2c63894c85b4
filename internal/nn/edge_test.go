package nn

import (
	"math"
	"math/rand"
	"testing"
)

// edgeInputs are the pre-activations where an activation's branches
// meet: softplus's ±30 cut and the next float either side, math.Tanh's
// ±0.625 and ±44.0149 thresholds, relu6's 0 and 6, signed zeros,
// subnormals, infinities and NaN, then a few random normals.
func edgeInputs() []float64 {
	xs := []float64{
		0, math.Copysign(0, -1),
		30, -30,
		math.Nextafter(30, math.Inf(1)), math.Nextafter(30, 0),
		math.Nextafter(-30, math.Inf(-1)), math.Nextafter(-30, 0),
		0.625, -0.625, math.Nextafter(0.625, 1), math.Nextafter(-0.625, -1),
		44.0149, -44.0149, math.Nextafter(44.0149, 50), math.Nextafter(-44.0149, -50),
		6, math.Nextafter(6, 0), math.Nextafter(6, 7), math.Nextafter(0, 1),
		math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
		0x1p-1030, -0x1p-1030,
		math.Inf(1), math.Inf(-1), math.NaN(),
	}
	rng := rand.New(rand.NewSource(31))
	for i := 0; i < 9; i++ {
		xs = append(xs, 3*rng.NormFloat64())
	}
	return xs
}

// edgeUpstream are the upstream gradients each row cycles through: the
// derivative's product with them decides the sign of a zero and how NaN
// and ±Inf propagate, so a shortcut for a derivative of 0 or 1 shows.
var edgeUpstream = []float64{1, -1, math.Copysign(0, -1), 0, math.Inf(1), math.Inf(-1), math.NaN(), 0.37, -2.5}

// TestActivationEdgesBitwise drives Dense.ForwardBatch and BackwardBatch
// through every branch edge of each activation on both kernel paths — a
// layer of 8 inputs reaches the packed (AVX2 where present) forward, a
// layer of 1 input the Go one — and requires the outputs to be Apply(x)
// and the activation-input gradients dy·Deriv(x), bit for bit, with the
// input gradient the ascending sum of those over the outputs.
//
// Every weight is 1, every bias −0 and each row's inputs after the first
// are −0, so each pre-activation of row r is exactly that row's edge e:
// −0 + e = e for every e, signed zeros and NaN included.
func TestActivationEdgesBitwise(t *testing.T) {
	xs := edgeInputs()
	for _, name := range append(append([]string(nil), ActivationNames...), "identity") {
		act, err := ActivationByName(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, sh := range []struct{ in, out int }{{8, 9}, {1, 3}} {
			checkActivationEdges(t, act, xs, sh.in, sh.out)
		}
	}
}

func checkActivationEdges(t *testing.T, act Activation, xs []float64, in, out int) {
	t.Helper()
	layers, _, _ := NewArena([]Spec{{In: in, Out: out, Act: act}})
	d := layers[0]
	negZero := math.Copysign(0, -1)
	for i := range d.W {
		d.W[i] = 1
	}
	for i := range d.B {
		d.B[i] = negZero
	}
	n := len(xs)
	x := make([]float64, n*in)
	dy := make([]float64, n*out)
	for r, e := range xs {
		x[r*in] = e
		for k := 1; k < in; k++ {
			x[r*in+k] = negZero
		}
		for o := 0; o < out; o++ {
			dy[r*out+o] = edgeUpstream[(r+o)%len(edgeUpstream)]
		}
	}
	bt := &BatchTrace{}
	y := d.ForwardBatch(bt, x, n)
	dx := d.BackwardBatch(bt, dy, n)
	same := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	for r, e := range xs {
		for o := 0; o < out; o++ {
			i := r*out + o
			if !same(bt.preact[i], e) {
				t.Fatalf("%s %dx%d: row %d pre-activation %v, want %v (test construction)", act.Name(), in, out, r, bt.preact[i], e)
			}
			if want := act.Apply(e); !same(y[i], want) {
				t.Errorf("%s %dx%d: Apply(%v) = %v (%#x), want %v (%#x)", act.Name(), in, out, e, y[i], math.Float64bits(y[i]), want, math.Float64bits(want))
			}
			if want := dy[i] * act.Deriv(e); !same(bt.dg[i], want) {
				t.Errorf("%s %dx%d: dy·Deriv at x=%v, dy=%v: %v (%#x), want %v (%#x)", act.Name(), in, out, e, dy[i], bt.dg[i], math.Float64bits(bt.dg[i]), want, math.Float64bits(want))
			}
		}
		for k := 0; k < in; k++ {
			want := 0.0
			for o := 0; o < out; o++ {
				want += dy[r*out+o] * act.Deriv(e) * d.W[o*in+k]
			}
			if got := dx[r*in+k]; !same(got, want) {
				t.Errorf("%s %dx%d: row %d (x=%v) input gradient %d = %v, want %v", act.Name(), in, out, r, e, k, got, want)
			}
		}
	}
}
