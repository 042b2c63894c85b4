package core

import (
	"context"
	"testing"
)

func TestMinimizeOnSimpleProblem(t *testing.T) {
	// min (x², (x-2)²): the Schaffer problem through the facade.
	ev := EvaluatorFunc(func(_ context.Context, g Genome) (Fitness, error) {
		return Fitness{g[0] * g[0], (g[0] - 2) * (g[0] - 2)}, nil
	})
	res, err := Minimize(context.Background(), ev,
		Bounds{{Lo: -10, Hi: 10}}, []float64{0.5}, 30, 25, 1)
	if err != nil {
		t.Fatalf("Minimize: %v", err)
	}
	front := ParetoFront(res.Final)
	if len(front) < 5 {
		t.Errorf("front size %d, want a spread of solutions", len(front))
	}
	for _, ind := range front {
		if ind.Genome[0] < -0.6 || ind.Genome[0] > 2.6 {
			t.Errorf("front member x=%v outside Pareto set [0,2]", ind.Genome[0])
		}
	}
}

func TestFacadeDecodeEncode(t *testing.T) {
	h := HParams{StartLR: 0.004, StopLR: 1e-4, RCut: 9, RCutSmth: 3,
		ScaleByWorker: "none", DescActiv: "tanh", FittingActiv: "softplus"}
	g, err := Encode(h)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Decode(g)
	if err != nil {
		t.Fatal(err)
	}
	if got != h {
		t.Errorf("round trip %+v != %+v", got, h)
	}
}

func TestFacadeCampaignSmall(t *testing.T) {
	opts := DefaultCampaign()
	opts.Runs, opts.PopSize, opts.Generations = 1, 16, 2
	c, err := RunCampaign(context.Background(), opts)
	if err != nil {
		t.Fatalf("RunCampaign: %v", err)
	}
	if c.Result.TotalEvaluations() != 3*16 {
		t.Errorf("evaluations = %d", c.Result.TotalEvaluations())
	}
}

func TestFacadeConstants(t *testing.T) {
	if len(PaperBounds()) != 7 || len(PaperStd()) != 7 {
		t.Error("paper representation wrong arity")
	}
	if !ChemicallyAccurate(Fitness{0.001, 0.035}) {
		t.Error("accuracy threshold wrong")
	}
	if EvalTimeout.Hours() != 2 {
		t.Error("EvalTimeout != 2h")
	}
	ev := NewSurrogate(1)
	fit, err := ev.Evaluate(context.Background(), mustEncode(t))
	if err != nil {
		t.Fatalf("surrogate: %v", err)
	}
	if len(fit) != 2 {
		t.Errorf("fitness arity %d", len(fit))
	}
}

func mustEncode(t *testing.T) Genome {
	t.Helper()
	g, err := Encode(HParams{StartLR: 0.004, StopLR: 1e-4, RCut: 10, RCutSmth: 3,
		ScaleByWorker: "none", DescActiv: "tanh", FittingActiv: "tanh"})
	if err != nil {
		t.Fatal(err)
	}
	return g
}
