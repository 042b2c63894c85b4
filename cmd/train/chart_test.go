package main

import (
	"math"
	"strings"
	"testing"

	"repro/internal/deepmd"
)

// TestChart pins chart's rendering: which records it plots, where, and
// the labels it puts on the y axis.
func TestChart(t *testing.T) {
	const width, height = 10, 5
	nan := math.NaN()
	cases := []struct {
		name string
		vals []float64
		// plotted lists the records that carry a '*'; nil wants the
		// degenerate-range message instead of a chart.
		plotted []int
		// top and bottom are the y labels of the first and last rows.
		top, bottom string
	}{
		{name: "empty", vals: nil},
		{name: "constant", vals: []float64{0.5, 0.5, 0.5}},
		{name: "one record", vals: []float64{0.3}},
		{name: "nothing positive", vals: []float64{0, -1, nan}},
		{name: "descending", vals: []float64{1, 0.5, 0.1, 0.05, 0.01}, plotted: []int{0, 1, 2, 3, 4},
			top: "1.00e+00", bottom: "1.00e-02"},
		{name: "rising", vals: []float64{0.01, 1}, plotted: []int{0, 1}, top: "1.00e+00", bottom: "1.00e-02"},
		{name: "zero negative and NaN skipped", vals: []float64{1, 0, 0.1, -2, nan, 0.01}, plotted: []int{0, 2, 5},
			top: "1.00e+00", bottom: "1.00e-02"},
		{name: "+Inf skipped", vals: []float64{1, 0.5, 0.1, math.Inf(1)}, plotted: []int{0, 1, 2},
			top: "1.00e+00", bottom: "1.00e-01"},
		{name: "-Inf skipped", vals: []float64{1, math.Inf(-1), 0.1}, plotted: []int{0, 2}, top: "1.00e+00", bottom: "1.00e-01"},
		// Labels take the digits that tell the extremes apart, up to
		// what fits in 10 columns; past that the series draws as constant.
		{name: "near-constant", vals: []float64{1.5601, 1.56, 1.5604}, plotted: []int{0, 1, 2},
			top: "1.5604e+00", bottom: "1.5600e+00"},
		{name: "constant to the label's digits", vals: []float64{1.56, 1.560001}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			recs := make([]deepmd.LCurveRecord, len(c.vals))
			for i, v := range c.vals {
				recs[i] = deepmd.LCurveRecord{Step: 10 * i, RmseFVal: v}
			}
			out := chart(recs, func(r deepmd.LCurveRecord) float64 { return r.RmseFVal }, width, height)
			if c.plotted == nil {
				if out != "(series constant or empty)\n" {
					t.Fatalf("got a chart, want the degenerate-range message:\n%s", out)
				}
				return
			}
			lines := strings.Split(strings.TrimSuffix(out, "\n"), "\n")
			if len(lines) != height+1 {
				t.Fatalf("%d lines, want %d rows and the step axis:\n%s", len(lines), height, out)
			}
			// Each row is a 10-column label, " |", width cells and "|".
			row := func(i int) string { return lines[i][12 : 12+width] }
			if n := strings.Count(out, "*"); n != len(c.plotted) {
				t.Errorf("%d '*', want one per plotted record (%d):\n%s", n, len(c.plotted), out)
			}
			lo, hi := math.Inf(1), math.Inf(-1)
			for _, i := range c.plotted {
				lo, hi = math.Min(lo, c.vals[i]), math.Max(hi, c.vals[i])
			}
			if got := strings.TrimSpace(lines[0][:10]); got != c.top {
				t.Errorf("top label %q, want %q", got, c.top)
			}
			if got := strings.TrimSpace(lines[height-1][:10]); got != c.bottom {
				t.Errorf("bottom label %q, want %q", got, c.bottom)
			}
			// Record i sits in column i*(width-1)/(n-1): the first in
			// column 0, the last in column width-1.  The maximum is on
			// the top row and the minimum on the bottom one.
			for _, i := range c.plotted {
				col := i * (width - 1) / (len(c.vals) - 1)
				var rows []int
				for r := 0; r < height; r++ {
					if row(r)[col] == '*' {
						rows = append(rows, r)
					}
				}
				if len(rows) != 1 {
					t.Errorf("record %d (%g): column %d has '*' on rows %v, want one:\n%s", i, c.vals[i], col, rows, out)
					continue
				}
				if c.vals[i] == hi && rows[0] != 0 {
					t.Errorf("maximum %g on row %d, want the top row:\n%s", hi, rows[0], out)
				}
				if c.vals[i] == lo && rows[0] != height-1 {
					t.Errorf("minimum %g on row %d, want the bottom row:\n%s", lo, rows[0], out)
				}
			}
		})
	}
}
