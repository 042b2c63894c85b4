package nsga2

import (
	"context"
	"math"
	"testing"

	"repro/internal/ea"
)

// zdt1Problem is the convex bi-objective ZDT1 problem over unit-interval
// variables, the fixture the loop tests converge on.  True front:
// f2 = 1 − √f1, f1 in [0, 1], reached at x2…xn = 0.
type zdt1Problem struct {
	Bounds ea.Bounds
}

func zdt1(n int) zdt1Problem {
	b := make(ea.Bounds, n)
	for i := range b {
		b[i] = ea.Interval{Lo: 0, Hi: 1}
	}
	return zdt1Problem{Bounds: b}
}

func (zdt1Problem) Eval(x ea.Genome) ea.Fitness {
	f1 := x[0]
	g := zdtG(x)
	return ea.Fitness{f1, g * (1 - math.Sqrt(f1/g))}
}

func (p zdt1Problem) Evaluator() ea.Evaluator {
	return ea.EvaluatorFunc(func(_ context.Context, g ea.Genome) (ea.Fitness, error) {
		return p.Eval(g), nil
	})
}

func (zdt1Problem) TrueFront(f1 float64) float64 { return 1 - math.Sqrt(f1) }

func zdtG(x ea.Genome) float64 {
	s := 0.0
	for _, xi := range x[1:] {
		s += xi
	}
	return 1 + 9*s/float64(len(x)-1)
}

func TestZDT1FrontConsistency(t *testing.T) {
	p := zdt1(30)
	for _, x1 := range []float64{0, 0.25, 0.5, 1} {
		g := make(ea.Genome, len(p.Bounds))
		g[0] = x1
		f := p.Eval(g)
		want := p.TrueFront(f[0])
		if math.Abs(f[1]-want) > 1e-12 {
			t.Errorf("ZDT1(x1=%v): f2 = %v, want %v", x1, f[1], want)
		}
	}
}
