// Package stats provides the analysis primitives behind the paper's
// figures: 2-D histogram binning for the energy-vs-force level plots
// (Fig. 1), parallel-coordinates tables (Fig. 3), and summary statistics.
package stats

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// Summary holds basic descriptive statistics of a sample.
type Summary struct {
	N                int
	Min, Max         float64
	Mean, Std        float64
	Median, P25, P75 float64
}

// Summarize computes descriptive statistics; NaNs are excluded.
func Summarize(xs []float64) Summary {
	var clean []float64
	for _, x := range xs {
		if !math.IsNaN(x) {
			clean = append(clean, x)
		}
	}
	s := Summary{N: len(clean)}
	if s.N == 0 {
		return s
	}
	sorted := append([]float64(nil), clean...)
	sort.Float64s(sorted)
	s.Min, s.Max = sorted[0], sorted[len(sorted)-1]
	s.Median = Quantile(sorted, 0.5)
	s.P25 = Quantile(sorted, 0.25)
	s.P75 = Quantile(sorted, 0.75)
	for _, x := range clean {
		s.Mean += x
	}
	s.Mean /= float64(s.N)
	for _, x := range clean {
		d := x - s.Mean
		s.Std += d * d
	}
	if s.N > 1 {
		s.Std = math.Sqrt(s.Std / float64(s.N-1))
	} else {
		s.Std = 0
	}
	return s
}

// Quantile returns the q-quantile of an ascending-sorted sample using
// linear interpolation.
func Quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	if q <= 0 {
		return sorted[0]
	}
	if q >= 1 {
		return sorted[len(sorted)-1]
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	frac := pos - float64(lo)
	if lo+1 >= len(sorted) {
		return sorted[lo]
	}
	return sorted[lo]*(1-frac) + sorted[lo+1]*frac
}

// Hist2D is a fixed-grid two-dimensional histogram, the data structure
// behind a level (density) plot.
type Hist2D struct {
	XMin, XMax float64
	YMin, YMax float64
	NX, NY     int
	Counts     [][]int // Counts[iy][ix]
	Clipped    int     // points outside the plotted window (Fig. 1 crops outliers)
	Total      int
}

// NewHist2D creates an empty histogram over the given window.
func NewHist2D(xmin, xmax float64, nx int, ymin, ymax float64, ny int) *Hist2D {
	h := &Hist2D{XMin: xmin, XMax: xmax, YMin: ymin, YMax: ymax, NX: nx, NY: ny}
	h.Counts = make([][]int, ny)
	for i := range h.Counts {
		h.Counts[i] = make([]int, nx)
	}
	return h
}

// Add bins one point; out-of-window points are counted as clipped.
func (h *Hist2D) Add(x, y float64) {
	h.Total++
	if x < h.XMin || x >= h.XMax || y < h.YMin || y >= h.YMax ||
		math.IsNaN(x) || math.IsNaN(y) {
		h.Clipped++
		return
	}
	ix := int((x - h.XMin) / (h.XMax - h.XMin) * float64(h.NX))
	iy := int((y - h.YMin) / (h.YMax - h.YMin) * float64(h.NY))
	if ix >= h.NX {
		ix = h.NX - 1
	}
	if iy >= h.NY {
		iy = h.NY - 1
	}
	h.Counts[iy][ix]++
}

// MaxCount returns the largest bin count.
func (h *Hist2D) MaxCount() int {
	m := 0
	for _, row := range h.Counts {
		for _, c := range row {
			if c > m {
				m = c
			}
		}
	}
	return m
}

// Render draws the histogram as ASCII art with density glyphs, y
// increasing upward — a terminal rendition of the paper's level plots.
func (h *Hist2D) Render() string {
	glyphs := []byte(" .:-=+*#%@")
	maxC := h.MaxCount()
	var b strings.Builder
	for iy := h.NY - 1; iy >= 0; iy-- {
		yHi := h.YMin + (h.YMax-h.YMin)*float64(iy+1)/float64(h.NY)
		fmt.Fprintf(&b, "%9.4f |", yHi)
		for ix := 0; ix < h.NX; ix++ {
			c := h.Counts[iy][ix]
			g := glyphs[0]
			if c > 0 && maxC > 0 {
				idx := 1 + c*(len(glyphs)-2)/maxC
				if idx >= len(glyphs) {
					idx = len(glyphs) - 1
				}
				g = glyphs[idx]
			}
			b.WriteByte(g)
		}
		b.WriteByte('\n')
	}
	fmt.Fprintf(&b, "%9s +%s\n", "", strings.Repeat("-", h.NX))
	fmt.Fprintf(&b, "%9s  %-*.4f%*.4f\n", "", h.NX-8, h.XMin, 8, h.XMax)
	if h.Clipped > 0 {
		fmt.Fprintf(&b, "(%d of %d points outside window cropped)\n", h.Clipped, h.Total)
	}
	return b.String()
}

// ParallelCoordinates holds one axis-normalized dataset for a parallel-
// coordinates plot: each row is one solution, each column one dimension.
type ParallelCoordinates struct {
	Axes []string
	Rows [][]float64 // raw values, Rows[i][j] on axis j
	// Tag marks rows (e.g. chemically accurate = true → "blue" in Fig. 3).
	Tag []bool
}

// AddRow appends a solution.
func (p *ParallelCoordinates) AddRow(values []float64, tagged bool) {
	if len(values) != len(p.Axes) {
		panic(fmt.Sprintf("stats: row has %d values for %d axes", len(values), len(p.Axes)))
	}
	p.Rows = append(p.Rows, append([]float64(nil), values...))
	p.Tag = append(p.Tag, tagged)
}

// RenderTable renders the parallel-coordinates data as a text table with
// one row per solution, sorted tagged-first.
func (p *ParallelCoordinates) RenderTable(maxRows int) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-4s", "acc")
	for _, a := range p.Axes {
		fmt.Fprintf(&b, " %14s", a)
	}
	b.WriteByte('\n')
	order := make([]int, len(p.Rows))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(x, y int) bool {
		return p.Tag[order[x]] && !p.Tag[order[y]]
	})
	n := 0
	for _, i := range order {
		if maxRows > 0 && n >= maxRows {
			fmt.Fprintf(&b, "… (%d more rows)\n", len(p.Rows)-n)
			break
		}
		mark := " "
		if p.Tag[i] {
			mark = "*"
		}
		fmt.Fprintf(&b, "%-4s", mark)
		for _, v := range p.Rows[i] {
			fmt.Fprintf(&b, " %14.6g", v)
		}
		b.WriteByte('\n')
		n++
	}
	return b.String()
}
