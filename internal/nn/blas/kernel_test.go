package blas

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
)

// The tests here run the entry points on every path the build can
// dispatch to (forEachDispatch: the pure-Go kernels, and the AVX2
// micro-kernel on an amd64 host that has it, outside -race) and compare
// each against the pure-Go kernels, bit for bit.  On the Go path they
// compare the code with itself and still check the entry points' operand
// validation and guard words.

// measuredShapes is the call-shape set a paper-network evaluation feeds
// the kernels (EXPERIMENTS.md "SIMD GEMM micro-kernel"): the embedding
// and fitting layers at the row counts a 20-atom frame produces.
func measuredShapes() []struct{ n, in, out int } {
	layers := [][2]int{{1, 25}, {25, 50}, {50, 100}, {400, 240}, {240, 240}, {240, 1}}
	var s []struct{ n, in, out int }
	for _, n := range []int{1, 2, 5, 6, 11, 12, 24} {
		for _, l := range layers {
			s = append(s, struct{ n, in, out int }{n, l[0], l[1]})
		}
	}
	return s
}

const guardWord = 0x7ff8_dead_beef_0001 // a NaN no kernel produces

// guardedSlice is a slice that starts off elements into its backing
// array with guard words on both sides, so that nothing handed to a kernel
// is 32-byte aligned by construction and a store outside the slice shows.
type guardedSlice struct {
	s, backing []float64
	lo         int // index of s[0] in backing
}

func guarded(src []float64, off int) guardedSlice {
	const pad = 8
	lo, hi := pad+off, pad+off+len(src)
	backing := make([]float64, hi+pad)
	for i := range backing {
		backing[i] = math.Float64frombits(guardWord)
	}
	copy(backing[lo:hi], src)
	return guardedSlice{s: backing[lo:hi:hi], backing: backing, lo: lo}
}

func (g guardedSlice) check(t *testing.T, what string) {
	t.Helper()
	for i, v := range g.backing {
		if (i < g.lo || i >= g.lo+len(g.s)) && math.Float64bits(v) != guardWord {
			t.Fatalf("%s: guard word %d elements from the slice start overwritten with %v", what, i-g.lo, v)
		}
	}
}

// diffBits returns the first index at which a and b differ in their bits,
// two NaNs counting as equal, or -1.
func diffBits(a, b []float64) int {
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) && !(math.IsNaN(a[i]) && math.IsNaN(b[i])) {
			return i
		}
	}
	return -1
}

// operands is one call's worth of inputs and pre-filled destinations.
type operands struct {
	n, in, out           int
	x, w, bias, g        []float64 // inputs
	dxFill, seedW, seedB []float64 // initial contents of dx, gradW, gradB
}

func randOperands(rng *rand.Rand, n, in, out int) operands {
	return operands{
		n: n, in: in, out: out,
		x: randSlice(rng, n*in), w: randSlice(rng, out*in),
		bias: randSlice(rng, out), g: randSlice(rng, n*out),
		dxFill: randSlice(rng, n*in),
		seedW:  randSlice(rng, out*in), seedB: randSlice(rng, out),
	}
}

// checkAgainstGeneric runs the four entry points, on each path the
// build can dispatch to, and the three Go kernels on the same operands,
// placed at offsets off..off+2 of guarded backings, and requires
// identical bits everywhere.
func checkAgainstGeneric(t *testing.T, op operands, off int) {
	t.Helper()
	forEachDispatch(func() { checkDispatch(t, op, off) })
}

func checkDispatch(t *testing.T, op operands, off int) {
	t.Helper()
	n, in, out := op.n, op.in, op.out
	x, w := guarded(op.x, off).s, guarded(op.w, off+1).s
	bias, g := guarded(op.bias, off+2).s, guarded(op.g, off+1).s
	what := fmt.Sprintf("%s: n=%d in=%d out=%d off=%d", Impl(), n, in, out, off)

	gotP := guarded(make([]float64, n*out), off+1)
	wantP := make([]float64, n*out)
	GemmBias(gotP.s, x, w, bias, n, in, out)
	gemmBiasGeneric(wantP, op.x, op.w, op.bias, n, in, out)
	if i := diffBits(gotP.s, wantP); i >= 0 {
		t.Fatalf("%s: GemmBias preact[%d] = %v, generic %v", what, i, gotP.s[i], wantP[i])
	}
	gotP.check(t, what+" preact")

	gotP, gotY := guarded(make([]float64, n*out), off+2), guarded(make([]float64, n*out), off)
	GemmBiasAct(gotP.s, gotY.s, x, w, bias, n, in, out, math.Tanh)
	if i := diffBits(gotP.s, wantP); i >= 0 {
		t.Fatalf("%s: GemmBiasAct preact[%d] = %v, generic %v", what, i, gotP.s[i], wantP[i])
	}
	wantY := make([]float64, n*out)
	for i, v := range wantP {
		wantY[i] = math.Tanh(v)
	}
	if i := diffBits(gotY.s, wantY); i >= 0 {
		t.Fatalf("%s: GemmBiasAct out[%d] = %v, want tanh(preact) %v", what, i, gotY.s[i], wantY[i])
	}
	gotP.check(t, what+" GemmBiasAct preact")
	gotY.check(t, what+" out")

	gotDx := guarded(op.dxFill, off+2)
	wantDx := append([]float64(nil), op.dxFill...)
	GemmNN(gotDx.s, g, w, n, in, out)
	gemmNNGeneric(wantDx, op.g, op.w, n, in, out)
	if i := diffBits(gotDx.s, wantDx); i >= 0 {
		t.Fatalf("%s: GemmNN dx[%d] = %v, generic %v", what, i, gotDx.s[i], wantDx[i])
	}
	gotDx.check(t, what+" dx")

	gotW, gotB := guarded(op.seedW, off), guarded(op.seedB, off+1)
	wantW := append([]float64(nil), op.seedW...)
	wantB := append([]float64(nil), op.seedB...)
	AccumGrad(gotW.s, gotB.s, g, x, n, in, out)
	accumGradGeneric(wantW, wantB, op.g, op.x, n, in, out)
	if i := diffBits(gotW.s, wantW); i >= 0 {
		t.Fatalf("%s: AccumGrad gradW[%d] = %v, generic %v", what, i, gotW.s[i], wantW[i])
	}
	if i := diffBits(gotB.s, wantB); i >= 0 {
		t.Fatalf("%s: AccumGrad gradB[%d] = %v, generic %v", what, i, gotB.s[i], wantB[i])
	}
	gotW.check(t, what+" gradW")
	gotB.check(t, what+" gradB")
}

// tailShapes reach accTiles' last < 4 columns (accColumn) with row
// blocks of four and a ragged rest: the embedding layers' in = 1, 25 and
// 50 are those columns in GemmNN (rows n) and AccumGrad (rows out), and
// no row count here is a multiple of four.
func tailShapes() []struct{ n, in, out int } {
	var s []struct{ n, in, out int }
	for _, in := range []int{1, 25, 50} {
		for _, rows := range []int{1, 3, 5, 7, 9, 13, 301} {
			s = append(s, struct{ n, in, out int }{rows, in, 7}, struct{ n, in, out int }{3, in, rows})
		}
	}
	return s
}

// TestKernelsMatchGenericBitwise runs both paths over the measured shape
// set, the ragged table and the tail-column shapes, with gradW/gradB
// seeded non-zero and dx pre-filled with garbage.
func TestKernelsMatchGenericBitwise(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	all := append(append(measuredShapes(), shapes...), tailShapes()...)
	for k, sh := range all {
		checkAgainstGeneric(t, randOperands(rng, sh.n, sh.in, sh.out), 1+k%3)
	}
}

// TestDegenerateDims: a zero in any dimension reads and writes nothing
// outside the (possibly empty) operands and matches the Go kernels —
// n = 0 and out = 0 leave nothing to compute, in = 0 leaves the bias.
func TestDegenerateDims(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	for _, sh := range []struct{ n, in, out int }{{0, 3, 2}, {3, 0, 2}, {3, 2, 0}, {0, 0, 5}, {0, 0, 0}} {
		checkAgainstGeneric(t, randOperands(rng, sh.n, sh.in, sh.out), 1)
	}
	// Nil operands are as good as empty ones.
	GemmBias(nil, nil, nil, nil, 0, 4, 0)
	GemmBiasAct(nil, nil, nil, nil, nil, 0, 4, 0, math.Tanh)
	GemmNN(nil, nil, nil, 0, 4, 0)
	AccumGrad(nil, nil, nil, nil, 0, 4, 0)
}

// TestShortOperandPanicsBeforeAnyWrite shortens each of the sixteen
// operands by one element in turn: the entry point must panic naming the
// operand, with every operand's contents — destinations included —
// exactly as they were.
func TestShortOperandPanicsBeforeAnyWrite(t *testing.T) {
	const n, in, out = 3, 4, 5
	type extent struct {
		dims string
		size int
	}
	nOut, nIn, outIn, outOnly := extent{"n×out", n * out}, extent{"n×in", n * in}, extent{"out×in", out * in}, extent{"out", out}
	shape := map[string]extent{
		"preact": nOut, "out": nOut, "g": nOut,
		"x": nIn, "dx": nIn,
		"w": outIn, "gradW": outIn,
		"bias": outOnly, "gradB": outOnly,
	}
	cases := []struct {
		fn    string
		names []string
		call  func(o [][]float64)
	}{
		{"GemmBias", []string{"preact", "x", "w", "bias"}, func(o [][]float64) {
			GemmBias(o[0], o[1], o[2], o[3], n, in, out)
		}},
		{"GemmBiasAct", []string{"preact", "out", "x", "w", "bias"}, func(o [][]float64) {
			GemmBiasAct(o[0], o[1], o[2], o[3], o[4], n, in, out, math.Tanh)
		}},
		{"GemmNN", []string{"dx", "g", "w"}, func(o [][]float64) {
			GemmNN(o[0], o[1], o[2], n, in, out)
		}},
		{"AccumGrad", []string{"gradW", "gradB", "g", "x"}, func(o [][]float64) {
			AccumGrad(o[0], o[1], o[2], o[3], n, in, out)
		}},
	}
	rng := rand.New(rand.NewSource(20))
	for _, tc := range cases {
		for short, name := range tc.names {
			ops := make([][]float64, len(tc.names))
			before := make([][]float64, len(tc.names))
			for k, nm := range tc.names {
				ops[k] = randSlice(rng, shape[nm].size)
				before[k] = append([]float64(nil), ops[k]...)
			}
			full := ops[short]
			ops[short] = full[:len(full)-1]
			want := fmt.Sprintf("blas: %s: %s has %d elements, need %s = %d",
				tc.fn, name, len(full)-1, shape[name].dims, len(full))
			if got := panicText(func() { tc.call(ops) }); got != want {
				t.Errorf("%s with short %s: panic %q, want %q", tc.fn, name, got, want)
			}
			ops[short] = full
			for k, nm := range tc.names {
				if i := diffBits(ops[k], before[k]); i >= 0 {
					t.Errorf("%s with short %s: %s[%d] was written before the panic", tc.fn, name, nm, i)
				}
			}
		}
	}
	if got := panicText(func() { GemmNN(nil, nil, nil, -1, 2, 2) }); !strings.Contains(got, "negative dimension") {
		t.Errorf("GemmNN with n = -1: panic %q, want a negative-dimension panic", got)
	}
}

// panicText runs fn and returns what it panicked with, printed.
func panicText(fn func()) (text string) {
	defer func() { text = fmt.Sprint(recover()) }()
	fn()
	return ""
}

// palette is what FuzzGemmDifferential draws operand values from: the
// inputs on which a lane-wise kernel could part from a scalar one — signed
// zeros (−0 sums), infinities and NaN (0·Inf in a padded lane must not
// leak), denormals, values that overflow when summed — and a few normals.
var palette = []float64{
	0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN(),
	math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, 0x1p-1030, -0x1p-1040,
	math.MaxFloat64, -math.MaxFloat64,
	1, -1.5, 3.0000000001, 1e-200, -1e200, math.Pi, 0x1p-537,
}

func FuzzGemmDifferential(f *testing.F) {
	f.Add([]byte{5, 9, 7, 1, 11, 12, 13, 14, 15, 16, 17})
	f.Add([]byte{12, 24, 25, 2, 0, 1, 2, 3, 4, 9, 9, 9, 10, 10, 2})
	f.Add([]byte{4, 8, 8, 0, 2, 4, 4, 2, 9, 3, 10})
	f.Add([]byte{1, 1, 1, 3, 4})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 5 {
			return
		}
		n, in, out, off := int(data[0])%34, int(data[1])%41, int(data[2])%41, int(data[3])%4
		vals := data[4:]
		next := 0
		draw := func(count int) []float64 {
			s := make([]float64, count)
			for i := range s {
				s[i] = palette[int(vals[next%len(vals)])%len(palette)]
				next++
			}
			return s
		}
		checkAgainstGeneric(t, operands{
			n: n, in: in, out: out,
			x: draw(n * in), w: draw(out * in), bias: draw(out), g: draw(n * out),
			dxFill: draw(n * in), seedW: draw(out * in), seedB: draw(out),
		}, off)
	})
}

// TestKernelsSteadyStateAllocs pins the four entry points at 0 allocs/op
// on every path this build can take (forEachDispatch), at the fitting
// net's 12×240×240: the assembly path's packed-xᵀ workspace must come
// back from its pool, and the Go kernels, which an AVX2 host otherwise
// runs only under -race or for the thinnest layers, allocate nothing.
func TestKernelsSteadyStateAllocs(t *testing.T) {
	const n, in, out = 12, 240, 240
	rng := rand.New(rand.NewSource(21))
	x, w, bias, g := randSlice(rng, n*in), randSlice(rng, out*in), randSlice(rng, out), randSlice(rng, n*out)
	preact, y, dx := make([]float64, n*out), make([]float64, n*out), make([]float64, n*in)
	gradW, gradB := make([]float64, out*in), make([]float64, out)
	forEachDispatch(func() {
		for name, fn := range map[string]func(){
			"GemmBias":    func() { GemmBias(preact, x, w, bias, n, in, out) },
			"GemmBiasAct": func() { GemmBiasAct(preact, y, x, w, bias, n, in, out, math.Tanh) },
			"GemmNN":      func() { GemmNN(dx, g, w, n, in, out) },
			"AccumGrad":   func() { AccumGrad(gradW, gradB, g, x, n, in, out) },
		} {
			if got := testing.AllocsPerRun(20, fn); got != 0 {
				t.Errorf("%s (%s): %v allocs/op in steady state, want 0", name, Impl(), got)
			}
		}
	})
}

// BenchmarkKernels reports GFLOP/s (two flops per multiply-add) of each
// entry point, dispatched and pure Go, on the measured layer shapes.
func BenchmarkKernels(b *testing.B) {
	rng := rand.New(rand.NewSource(22))
	for _, sh := range []struct{ n, in, out int }{
		{6, 1, 25}, {6, 25, 50}, {6, 50, 100}, {12, 400, 240}, {12, 240, 240}, {24, 240, 240}, {12, 240, 1},
	} {
		n, in, out := sh.n, sh.in, sh.out
		x, w, bias, g := randSlice(rng, n*in), randSlice(rng, out*in), randSlice(rng, out), randSlice(rng, n*out)
		preact, y, dx := make([]float64, n*out), make([]float64, n*out), make([]float64, n*in)
		gradW, gradB := make([]float64, out*in), make([]float64, out)
		for _, k := range []struct {
			name string
			fn   func()
		}{
			{"GemmBias/" + Impl(), func() { GemmBias(preact, x, w, bias, n, in, out) }},
			{"GemmBias/go", func() { gemmBiasGeneric(preact, x, w, bias, n, in, out) }},
			{"GemmBiasAct+tanh/" + Impl(), func() { GemmBiasAct(preact, y, x, w, bias, n, in, out, math.Tanh) }},
			{"GemmNN/" + Impl(), func() { GemmNN(dx, g, w, n, in, out) }},
			{"GemmNN/go", func() { gemmNNGeneric(dx, g, w, n, in, out) }},
			{"AccumGrad/" + Impl(), func() { AccumGrad(gradW, gradB, g, x, n, in, out) }},
			{"AccumGrad/go", func() { accumGradGeneric(gradW, gradB, g, x, n, in, out) }},
		} {
			b.Run(fmt.Sprintf("%dx%dx%d/%s", n, in, out, k.name), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					k.fn()
				}
				b.ReportMetric(2*float64(n*in*out)*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFLOP/s")
			})
		}
	}
}
