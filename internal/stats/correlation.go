package stats

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// Pearson returns the Pearson linear correlation coefficient of two equal-
// length samples, or NaN for degenerate input.
func Pearson(x, y []float64) float64 {
	n := len(x)
	if n != len(y) || n < 2 {
		return math.NaN()
	}
	var mx, my float64
	for i := 0; i < n; i++ {
		mx += x[i]
		my += y[i]
	}
	mx /= float64(n)
	my /= float64(n)
	var sxy, sxx, syy float64
	for i := 0; i < n; i++ {
		dx := x[i] - mx
		dy := y[i] - my
		sxy += dx * dy
		sxx += dx * dx
		syy += dy * dy
	}
	if sxx == 0 || syy == 0 {
		return math.NaN()
	}
	return sxy / math.Sqrt(sxx*syy)
}

// Spearman returns the Spearman rank correlation: Pearson on fractional
// ranks, robust to monotone-nonlinear relationships — the right tool for
// hyperparameter-vs-loss association where effects are rarely linear.
func Spearman(x, y []float64) float64 {
	if len(x) != len(y) || len(x) < 2 {
		return math.NaN()
	}
	return Pearson(ranks(x), ranks(y))
}

// ranks converts values to fractional ranks (ties averaged).
func ranks(xs []float64) []float64 {
	n := len(xs)
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return xs[idx[a]] < xs[idx[b]] })
	out := make([]float64, n)
	for i := 0; i < n; {
		j := i
		//lint:ignore floateq Spearman tie groups are defined by exact value identity; an epsilon would merge distinct ranks
		for j+1 < n && xs[idx[j+1]] == xs[idx[i]] {
			j++
		}
		avg := float64(i+j)/2 + 1
		for k := i; k <= j; k++ {
			out[idx[k]] = avg
		}
		i = j + 1
	}
	return out
}

// MannWhitneyU compares two independent samples by rank.  It returns
// U, the number of (x, y) pairs with x > y (a tie counts ½), and the
// one-sided p-value for the alternative that x tends to be larger than
// y.  The p-value is the normal approximation with the tie-corrected
// variance and a continuity correction, adequate from about eight
// observations a side.  Either sample empty gives NaN.
func MannWhitneyU(x, y []float64) (u, p float64) {
	m, n := float64(len(x)), float64(len(y))
	if m == 0 || n == 0 {
		return math.NaN(), math.NaN()
	}
	r := ranks(append(append(make([]float64, 0, len(x)+len(y)), x...), y...))
	// Ties shrink the variance by Σ(t³−t) / (N(N−1)) over tie groups, and
	// the members of a group share one rank.
	group := map[float64]float64{}
	for i, v := range r {
		if i < len(x) {
			u += v
		}
		group[v]++
	}
	u -= m * (m + 1) / 2
	N, ties := m+n, 0.0
	for _, t := range group {
		ties += t*t*t - t // integers: the sum is exact in any order
	}
	sd := math.Sqrt(m * n / 12 * (N + 1 - ties/(N*(N-1))))
	if sd == 0 {
		return u, 1
	}
	z := (u - m*n/2 - 0.5) / sd
	return u, 0.5 * math.Erfc(z/math.Sqrt2)
}

// SignTest is the paired sign test: over the pairs (x[i], y[i]) that
// differ it counts wins, the pairs with x[i] > y[i], and returns the
// exact one-sided binomial p-value P(Bin(n, ½) ≥ wins) for the
// alternative that x tends to be larger than y.  Unequal lengths or no
// differing pair give NaN.
func SignTest(x, y []float64) (wins, n int, p float64) {
	if len(x) != len(y) {
		return 0, 0, math.NaN()
	}
	for i := range x {
		switch {
		case x[i] > y[i]:
			wins++
			n++
		case x[i] < y[i]:
			n++
		}
	}
	if n == 0 {
		return 0, 0, math.NaN()
	}
	lgN, _ := math.Lgamma(float64(n + 1))
	for k := wins; k <= n; k++ {
		lgK, _ := math.Lgamma(float64(k + 1))
		lgNK, _ := math.Lgamma(float64(n - k + 1))
		p += math.Exp(lgN - lgK - lgNK - float64(n)*math.Ln2)
	}
	return wins, n, min(p, 1)
}

// CorrelationMatrix computes Spearman correlations of every column in
// data against every target column.  data is column-major: data[c][i] is
// observation i of column c.
type CorrelationMatrix struct {
	ColumnNames []string
	TargetNames []string
	// Rho[c][t] is Spearman(data column c, target t).
	Rho [][]float64
}

// NewCorrelationMatrix builds the matrix.
func NewCorrelationMatrix(colNames []string, cols [][]float64, targetNames []string, targets [][]float64) (*CorrelationMatrix, error) {
	if len(colNames) != len(cols) || len(targetNames) != len(targets) {
		return nil, fmt.Errorf("stats: name/data arity mismatch")
	}
	m := &CorrelationMatrix{ColumnNames: colNames, TargetNames: targetNames}
	for c := range cols {
		row := make([]float64, len(targets))
		for t := range targets {
			row[t] = Spearman(cols[c], targets[t])
		}
		m.Rho = append(m.Rho, row)
	}
	return m, nil
}

// Render formats the matrix as a table.
func (m *CorrelationMatrix) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-20s", "")
	for _, t := range m.TargetNames {
		fmt.Fprintf(&b, " %12s", t)
	}
	b.WriteByte('\n')
	for c, name := range m.ColumnNames {
		fmt.Fprintf(&b, "%-20s", name)
		for t := range m.TargetNames {
			fmt.Fprintf(&b, " %12.3f", m.Rho[c][t])
		}
		b.WriteByte('\n')
	}
	return b.String()
}
