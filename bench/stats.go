package main

import (
	"math"
	"sort"
)

// metric is one named measurement; n is how many samples stand behind
// the value (1 for a single reading).
type metric struct {
	name  string
	unit  string
	value float64
	n     int
}

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics; NaN when xs is empty.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := min(lo+1, len(s)-1)
	return s[lo] + (pos-float64(lo))*(s[hi]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }
