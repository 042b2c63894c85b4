package sensitivity

import (
	"context"
	"errors"
	"math"
	"strings"
	"testing"

	"repro/internal/ea"
	"repro/internal/hpo"
	"repro/internal/surrogate"
)

// quadEval is an analytic evaluator with known sensitivities: objective 0
// depends strongly on gene 0, weakly on gene 1, not at all on gene 2.
var quadEval = ea.EvaluatorFunc(func(_ context.Context, g ea.Genome) (ea.Fitness, error) {
	return ea.Fitness{
		10*g[0]*g[0] + 0.1*g[1],
		g[1] + 0.01*g[0],
	}, nil
})

var quadBounds = ea.Bounds{{Lo: 0, Hi: 1}, {Lo: 0, Hi: 1}, {Lo: 0, Hi: 1}}

func TestOATSpreadsMatchAnalyticStructure(t *testing.T) {
	baseline := ea.Genome{0.5, 0.5, 0.5}
	res, err := OAT(context.Background(), quadEval, quadBounds,
		[]string{"a", "b", "c"}, baseline, 9, 2)
	if err != nil {
		t.Fatalf("OAT: %v", err)
	}
	if len(res) != 3 {
		t.Fatalf("got %d results", len(res))
	}
	// Objective 0: 10x² has spread 10 over [0,1]; 0.1·b has 0.1; c: 0.
	if math.Abs(res[0].Spread[0]-10) > 1e-9 {
		t.Errorf("gene a spread = %v, want 10", res[0].Spread[0])
	}
	if math.Abs(res[1].Spread[0]-0.1) > 1e-9 {
		t.Errorf("gene b spread = %v, want 0.1", res[1].Spread[0])
	}
	if res[2].Spread[0] != 0 || res[2].Spread[1] != 0 {
		t.Errorf("inert gene c has spread %v", res[2].Spread)
	}
	if res[0].Name != "a" || len(res[0].Points) != 9 {
		t.Error("metadata wrong")
	}
}

func TestOATCountsFailures(t *testing.T) {
	ev := ea.EvaluatorFunc(func(_ context.Context, g ea.Genome) (ea.Fitness, error) {
		if g[0] > 0.8 {
			return nil, errors.New("diverged")
		}
		return ea.Fitness{g[0], 1 - g[0]}, nil
	})
	res, err := OAT(context.Background(), ev, quadBounds[:1], nil, ea.Genome{0}, 11, 2)
	if err != nil {
		t.Fatal(err)
	}
	if res[0].Failures != 2 { // values 0.9 and 1.0 fail
		t.Errorf("failures = %d, want 2", res[0].Failures)
	}
	if res[0].Spread[0] <= 0 {
		t.Error("spread not computed over successes")
	}
}

func TestMorrisRanksAnalyticStructure(t *testing.T) {
	res, err := Morris(context.Background(), quadEval, quadBounds,
		[]string{"a", "b", "c"}, 20, 8, 2, 1)
	if err != nil {
		t.Fatalf("Morris: %v", err)
	}
	// Objective 0: a ≫ b ≫ c.
	if mu := [3]float64{res[0].MuStar[0], res[1].MuStar[0], res[2].MuStar[0]}; mu[0] <= mu[1] || mu[1] <= mu[2] {
		t.Errorf("objective-0 mu* = %v, want a > b > c", mu)
	}
	// Objective 1 is dominated by b.
	if mu := [3]float64{res[0].MuStar[1], res[1].MuStar[1], res[2].MuStar[1]}; mu[1] <= mu[0] || mu[1] <= mu[2] {
		t.Errorf("objective-1 mu* = %v, want b largest", mu)
	}
	if res[2].MuStar[0] > 1e-9 {
		t.Errorf("inert gene mu* = %v, want 0", res[2].MuStar[0])
	}
	// The nonlinear gene a should show larger sigma than the linear b on
	// objective 0.
	if res[0].Sigma[0] <= res[1].Sigma[0] {
		t.Errorf("nonlinear gene sigma %v not above linear gene %v", res[0].Sigma[0], res[1].Sigma[0])
	}
}

func TestMorrisOnSurrogateFindsPaperStructure(t *testing.T) {
	// Screening the actual HPO landscape must rank rcut and start_lr as
	// influential and rcut_smth as weak — the structure that §2.2.1's
	// "initial sensitivity testing" identified.
	ev := surrogate.NewEvaluator(surrogate.Config{Seed: 2, NoiseScale: -1, DisableFailures: true})
	rep := hpo.PaperRepresentation()
	res, err := Morris(context.Background(), ev, rep.Bounds, hpo.GeneNames[:], 30, 8, 2, 3)
	if err != nil {
		t.Fatalf("Morris: %v", err)
	}
	byName := map[string]MorrisResult{}
	for _, r := range res {
		byName[r.Name] = r
	}
	// Force objective (k=1): rcut must beat rcut_smth decisively.
	if byName["rcut"].MuStar[1] <= 2*byName["rcut_smth"].MuStar[1] {
		t.Errorf("rcut mu* %v not well above rcut_smth %v on force",
			byName["rcut"].MuStar[1], byName["rcut_smth"].MuStar[1])
	}
	// start_lr influences both objectives.
	if byName["start_lr"].MuStar[0] <= 0 || byName["start_lr"].MuStar[1] <= 0 {
		t.Error("start_lr shows no influence")
	}
}

func TestMorrisBaselineLengthValidation(t *testing.T) {
	_, err := OAT(context.Background(), quadEval, quadBounds, nil, ea.Genome{0.5}, 5, 2)
	if err == nil {
		t.Error("short baseline accepted")
	}
}

func TestMorrisCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Morris(ctx, quadEval, quadBounds, nil, 4, 8, 2, 1); err == nil {
		t.Error("cancelled Morris returned nil error")
	}
	if _, err := OAT(ctx, quadEval, quadBounds, nil, ea.Genome{0, 0, 0}, 5, 2); err == nil {
		t.Error("cancelled OAT returned nil error")
	}
}

func TestRenderers(t *testing.T) {
	oat, err := OAT(context.Background(), quadEval, quadBounds, []string{"a", "b", "c"},
		ea.Genome{0.5, 0.5, 0.5}, 5, 2)
	if err != nil {
		t.Fatal(err)
	}
	txt := RenderOAT(oat, []string{"energy", "force"})
	if !strings.Contains(txt, "spread(energy)") || !strings.Contains(txt, "a") {
		t.Errorf("OAT render:\n%s", txt)
	}
	mor, err := Morris(context.Background(), quadEval, quadBounds, nil, 4, 8, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	txt = RenderMorris(mor, []string{"energy", "force"})
	if !strings.Contains(txt, "mu*(energy)") || !strings.Contains(txt, "gene0") {
		t.Errorf("Morris render:\n%s", txt)
	}
}
