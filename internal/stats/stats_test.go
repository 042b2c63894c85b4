package stats

import (
	"bytes"
	"image/color"
	"image/png"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"testing/quick"
)

func TestSummarizeKnown(t *testing.T) {
	s := Summarize([]float64{1, 2, 3, 4, 5})
	if s.N != 5 || s.Min != 1 || s.Max != 5 {
		t.Errorf("N/Min/Max = %d/%v/%v", s.N, s.Min, s.Max)
	}
	if s.Mean != 3 || s.Median != 3 {
		t.Errorf("Mean/Median = %v/%v", s.Mean, s.Median)
	}
	if math.Abs(s.Std-math.Sqrt(2.5)) > 1e-12 {
		t.Errorf("Std = %v, want %v", s.Std, math.Sqrt(2.5))
	}
	if s.P25 != 2 || s.P75 != 4 {
		t.Errorf("quartiles = %v, %v", s.P25, s.P75)
	}
}

func TestSummarizeEdgeCases(t *testing.T) {
	if s := Summarize(nil); s.N != 0 {
		t.Error("empty sample")
	}
	s := Summarize([]float64{7})
	if s.N != 1 || s.Mean != 7 || s.Std != 0 {
		t.Errorf("singleton: %+v", s)
	}
	s = Summarize([]float64{1, math.NaN(), 3})
	if s.N != 2 || s.Mean != 2 {
		t.Errorf("NaN filtering: %+v", s)
	}
}

func TestQuantile(t *testing.T) {
	sorted := []float64{0, 10, 20, 30}
	cases := []struct{ q, want float64 }{
		{0, 0}, {1, 30}, {0.5, 15}, {1.0 / 3.0, 10}, {-0.5, 0}, {2, 30},
	}
	for _, c := range cases {
		if got := Quantile(sorted, c.q); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("Quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if !math.IsNaN(Quantile(nil, 0.5)) {
		t.Error("Quantile(empty) not NaN")
	}
}

func TestQuickQuantileWithinRange(t *testing.T) {
	f := func(raw []float64, q float64) bool {
		var clean []float64
		for _, v := range raw {
			if !math.IsNaN(v) && !math.IsInf(v, 0) {
				clean = append(clean, v)
			}
		}
		if len(clean) == 0 {
			return true
		}
		q = math.Abs(math.Mod(q, 1))
		sorted := append([]float64(nil), clean...)
		for i := 1; i < len(sorted); i++ {
			for j := i; j > 0 && sorted[j] < sorted[j-1]; j-- {
				sorted[j], sorted[j-1] = sorted[j-1], sorted[j]
			}
		}
		v := Quantile(sorted, q)
		return v >= sorted[0] && v <= sorted[len(sorted)-1]
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestHist2DBinning(t *testing.T) {
	h := NewHist2D(0, 10, 10, 0, 1, 10)
	h.Add(0.5, 0.05)  // bin (0,0)
	h.Add(9.99, 0.99) // bin (9,9)
	h.Add(5, 0.5)     // bin (5,5)
	h.Add(11, 0.5)    // clipped
	h.Add(5, -0.1)    // clipped
	if h.Counts[0][0] != 1 || h.Counts[9][9] != 1 || h.Counts[5][5] != 1 {
		t.Errorf("bins wrong: %v", h.Counts)
	}
	if h.Clipped != 2 || h.Total != 5 {
		t.Errorf("Clipped/Total = %d/%d", h.Clipped, h.Total)
	}
	if h.MaxCount() != 1 {
		t.Errorf("MaxCount = %d", h.MaxCount())
	}
}

func TestHist2DBoundaryPointsNotLost(t *testing.T) {
	h := NewHist2D(0, 1, 4, 0, 1, 4)
	h.Add(0, 0)
	if h.Counts[0][0] != 1 {
		t.Error("lower-left corner lost")
	}
	h.Add(1, 1) // exactly on the open upper edge: clipped by convention
	if h.Clipped != 1 {
		t.Error("upper edge should clip")
	}
}

func TestHist2DRender(t *testing.T) {
	h := NewHist2D(0, 1, 20, 0, 1, 5)
	for i := 0; i < 50; i++ {
		h.Add(0.5, 0.5)
	}
	h.Add(2, 2)
	out := h.Render()
	if !strings.Contains(out, "@") {
		t.Error("dense bin not rendered with densest glyph")
	}
	if !strings.Contains(out, "cropped") {
		t.Error("clipped count not reported")
	}
	if len(strings.Split(strings.TrimSpace(out), "\n")) < 7 {
		t.Error("render too short")
	}
}

func TestParallelCoordinates(t *testing.T) {
	p := &ParallelCoordinates{Axes: []string{"rcut", "force"}}
	p.AddRow([]float64{11.3, 0.0357}, true)
	p.AddRow([]float64{6.2, 0.09}, false)
	p.AddRow([]float64{10.1, 0.0374}, true)

	out := p.RenderTable(0)
	if !strings.HasPrefix(strings.TrimSpace(strings.Split(out, "\n")[1]), "*") {
		t.Errorf("tagged rows not sorted first:\n%s", out)
	}
}

func TestParallelCoordinatesRowLimit(t *testing.T) {
	p := &ParallelCoordinates{Axes: []string{"x"}}
	for i := 0; i < 10; i++ {
		p.AddRow([]float64{float64(i)}, false)
	}
	out := p.RenderTable(3)
	if !strings.Contains(out, "7 more rows") {
		t.Errorf("row limit not applied:\n%s", out)
	}
}

func TestParallelCoordinatesPanicsOnBadRow(t *testing.T) {
	p := &ParallelCoordinates{Axes: []string{"a", "b"}}
	defer func() {
		if recover() == nil {
			t.Error("mismatched row accepted")
		}
	}()
	p.AddRow([]float64{1}, false)
}

func TestPearsonKnown(t *testing.T) {
	if r := Pearson([]float64{1, 2, 3}, []float64{2, 4, 6}); math.Abs(r-1) > 1e-12 {
		t.Errorf("perfect positive r = %v", r)
	}
	if r := Pearson([]float64{1, 2, 3}, []float64{6, 4, 2}); math.Abs(r+1) > 1e-12 {
		t.Errorf("perfect negative r = %v", r)
	}
	if !math.IsNaN(Pearson([]float64{1, 1, 1}, []float64{1, 2, 3})) {
		t.Error("degenerate column should give NaN")
	}
	if !math.IsNaN(Pearson([]float64{1}, []float64{1})) {
		t.Error("n<2 should give NaN")
	}
}

func TestSpearmanMonotoneNonlinear(t *testing.T) {
	// y = exp(x) is monotone: Spearman must be exactly 1 even though
	// Pearson is below 1.
	x := []float64{0, 1, 2, 3, 4, 5}
	y := make([]float64, len(x))
	for i, v := range x {
		y[i] = math.Exp(v)
	}
	if r := Spearman(x, y); math.Abs(r-1) > 1e-12 {
		t.Errorf("Spearman of monotone data = %v, want 1", r)
	}
	if r := Pearson(x, y); r >= 1-1e-9 {
		t.Errorf("Pearson of exp data = %v, expected < 1", r)
	}
}

func TestRanksWithTies(t *testing.T) {
	r := ranks([]float64{10, 20, 20, 30})
	want := []float64{1, 2.5, 2.5, 4}
	for i := range want {
		if r[i] != want[i] {
			t.Errorf("ranks[%d] = %v, want %v", i, r[i], want[i])
		}
	}
}

func TestCorrelationMatrix(t *testing.T) {
	cols := [][]float64{{1, 2, 3, 4}, {4, 3, 2, 1}}
	targets := [][]float64{{2, 4, 6, 8}}
	m, err := NewCorrelationMatrix([]string{"up", "down"}, cols, []string{"obj"}, targets)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(m.Rho[0][0]-1) > 1e-12 || math.Abs(m.Rho[1][0]+1) > 1e-12 {
		t.Errorf("matrix = %v", m.Rho)
	}
	if !strings.Contains(m.Render(), "obj") {
		t.Error("render missing target name")
	}
	if _, err := NewCorrelationMatrix([]string{"a"}, nil, nil, nil); err == nil {
		t.Error("arity mismatch accepted")
	}
}

func TestWritePNG(t *testing.T) {
	h := NewHist2D(0, 1, 30, 0, 1, 10)
	for i := 0; i < 500; i++ {
		h.Add(float64(i%30)/30+0.001, float64(i%10)/10+0.001)
	}
	var buf bytes.Buffer
	if err := h.WritePNG(&buf, 4); err != nil {
		t.Fatalf("WritePNG: %v", err)
	}
	img, err := png.Decode(&buf)
	if err != nil {
		t.Fatalf("decoding produced PNG: %v", err)
	}
	b := img.Bounds()
	if b.Dx() != 30*4+4 || b.Dy() != 10*4+4 {
		t.Errorf("image %dx%d, want 124x44", b.Dx(), b.Dy())
	}
	// Empty histogram still renders.
	var buf2 bytes.Buffer
	if err := NewHist2D(0, 1, 5, 0, 1, 5).WritePNG(&buf2, 0); err != nil {
		t.Errorf("empty histogram: %v", err)
	}
}

func TestWritePNGFile(t *testing.T) {
	h := NewHist2D(0, 1, 5, 0, 1, 5)
	h.Add(0.5, 0.5)
	path := filepath.Join(t.TempDir(), "fig.png")
	if err := h.WritePNGFile(path, 3); err != nil {
		t.Fatalf("WritePNGFile: %v", err)
	}
	if fi, err := os.Stat(path); err != nil || fi.Size() == 0 {
		t.Errorf("file missing or empty: %v", err)
	}
}

func TestLevelColorRange(t *testing.T) {
	for _, tt := range []float64{-1, 0, 0.25, 0.5, 0.75, 1, 2} {
		c := levelColor(tt)
		if c.A != 255 {
			t.Errorf("alpha %d at t=%v", c.A, tt)
		}
	}
	if levelColor(0) != (color.RGBA{255, 255, 255, 255}) {
		t.Error("t=0 not white")
	}
}

// TestMannWhitneyUTable checks U and its one-sided p-value against values
// worked by hand: U by counting pairs, p from z = (U − mn/2 − ½)/σ with
// σ² = mn/12 · (N+1 − Σ(t³−t)/(N(N−1))) and the normal upper tail.
func TestMannWhitneyUTable(t *testing.T) {
	for _, tc := range []struct {
		name  string
		x, y  []float64
		u, p  float64
		exact bool // p is exact, not a rounded table value
	}{
		// σ² = 9/12 · 7 = 5.25, z = 4/2.2913 = 1.7457, p = 1 − Φ(1.7457).
		{"x above y", []float64{4, 5, 6}, []float64{1, 2, 3}, 9, 0.04043, false},
		// z = −5/2.2913 = −2.1822, p = Φ(2.1822).
		{"x below y", []float64{1, 2, 3}, []float64{4, 5, 6}, 0, 0.98545, false},
		// Ranks 1, 3, 3 | 3, 5.5, 5.5: U = 7 − 6 = 1.  Ties 3 and 2 give
		// Σ(t³−t) = 30 = N(N−1), so σ² = 9/12 · 6 = 4.5 and z = −4/2.1213.
		{"ties", []float64{1, 2, 2}, []float64{2, 3, 3}, 1, 0.97033, false},
		// Every value tied: σ = 0, nothing to reject.
		{"all tied", []float64{1, 1}, []float64{1, 1}, 2, 1, true},
	} {
		u, p := MannWhitneyU(tc.x, tc.y)
		tol := 5e-5
		if tc.exact {
			tol = 0
		}
		if u != tc.u || math.Abs(p-tc.p) > tol {
			t.Errorf("%s: MannWhitneyU = (%v, %v), want (%v, %v)", tc.name, u, p, tc.u, tc.p)
		}
	}
	if u, p := MannWhitneyU(nil, []float64{1}); !math.IsNaN(u) || !math.IsNaN(p) {
		t.Errorf("empty sample: got (%v, %v), want NaN", u, p)
	}
}

// TestSignTestTable checks the exact binomial tail on hand-counted cases.
func TestSignTestTable(t *testing.T) {
	ones := func(n int) []float64 {
		y := make([]float64, n)
		for i := range y {
			y[i] = 1
		}
		return y
	}
	x28 := ones(30)
	for i := range x28[:28] {
		x28[i] = 2
	}
	x28[28] = 0
	x28[29] = 0
	for _, tc := range []struct {
		name    string
		x, y    []float64
		wins, n int
		p       float64
	}{
		{"5 of 5", []float64{2, 3, 4, 5, 6}, ones(5), 5, 5, 1.0 / 32},
		{"4 of 5", []float64{2, 3, 4, 5, 0}, ones(5), 4, 5, 6.0 / 32},
		{"tie dropped", []float64{2, 3, 1}, ones(3), 2, 2, 1.0 / 4},
		{"0 of 2", []float64{0, 0}, ones(2), 0, 2, 1},
		// (C(30,28) + C(30,29) + C(30,30)) / 2³⁰ = 466 / 2³⁰.
		{"28 of 30", x28, ones(30), 28, 30, 466.0 / (1 << 30)},
	} {
		wins, n, p := SignTest(tc.x, tc.y)
		if wins != tc.wins || n != tc.n || math.Abs(p-tc.p) > 1e-12*math.Max(1, tc.p) {
			t.Errorf("%s: SignTest = (%d, %d, %v), want (%d, %d, %v)", tc.name, wins, n, p, tc.wins, tc.n, tc.p)
		}
	}
	if _, _, p := SignTest([]float64{1}, []float64{1}); !math.IsNaN(p) {
		t.Errorf("no differing pair: p = %v, want NaN", p)
	}
}
