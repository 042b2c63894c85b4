package experiments

import (
	"context"
	"strings"
	"sync"
	"testing"
)

// sharedCampaign runs the full paper-scale campaign once per test binary;
// it takes a couple of seconds against the surrogate.
var (
	campaignOnce sync.Once
	campaign     *Campaign
	campaignErr  error
)

func paperCampaign(t *testing.T) *Campaign {
	t.Helper()
	campaignOnce.Do(func() {
		campaign, campaignErr = RunPaperCampaign(context.Background(), PaperOptions())
	})
	if campaignErr != nil {
		t.Fatalf("RunPaperCampaign: %v", campaignErr)
	}
	return campaign
}

func TestCampaignScaleMatchesPaper(t *testing.T) {
	c := paperCampaign(t)
	if got := c.Result.TotalEvaluations(); got != 3500 {
		t.Errorf("total evaluations = %d, want 3500 (5 runs × 7 gens × 100)", got)
	}
	if got := len(c.Result.LastGenerations()); got != 500 {
		t.Errorf("pooled last generations = %d, want 500", got)
	}
}

// TestCampaignScalesDown runs the paper campaign at reduced scale.
func TestCampaignScalesDown(t *testing.T) {
	opts := PaperOptions()
	opts.Runs, opts.PopSize, opts.Generations = 1, 16, 2
	c, err := RunPaperCampaign(context.Background(), opts)
	if err != nil {
		t.Fatalf("RunPaperCampaign: %v", err)
	}
	if got := c.Result.TotalEvaluations(); got != 3*16 {
		t.Errorf("total evaluations = %d, want 48 (1 run × 3 gens × 16)", got)
	}
}

func TestTable1MatchesRepresentation(t *testing.T) {
	rows := Table1()
	if len(rows) != 7 {
		t.Fatalf("Table 1 has %d rows, want 7", len(rows))
	}
	if rows[0].Name != "start_lr" || rows[0].Hi != 0.01 || rows[0].Std != 0.001 {
		t.Errorf("start_lr row wrong: %+v", rows[0])
	}
	if rows[2].Name != "rcut" || rows[2].Lo != 6 || rows[2].Hi != 12 || rows[2].Std != 0.0625 {
		t.Errorf("rcut row wrong: %+v", rows[2])
	}
	text := RenderTable1()
	for _, want := range []string{"start_lr", "rcut_smth", "0.0625", "scale_by_worker"} {
		if !strings.Contains(text, want) {
			t.Errorf("RenderTable1 missing %q", want)
		}
	}
}

func TestFig1ShowsConvergence(t *testing.T) {
	c := paperCampaign(t)
	f := Fig1(c)
	if len(f.Hists) != 7 {
		t.Fatalf("Fig 1 has %d generations, want 7", len(f.Hists))
	}
	// Each generation pools 500 evaluations.
	for g, h := range f.Hists {
		if h.Total != 500 {
			t.Errorf("generation %d pooled %d points, want 500", g, h.Total)
		}
	}
	// Convergence: the fraction of points inside the near-origin region
	// must grow from generation 0 to the last generation.
	origin := func(h2 int) float64 {
		h := f.Hists[h2]
		in := 0
		// force < 0.05 (first 5 of 60 bins), energy < 0.003 (first 2 of 20)
		for iy := 0; iy < 2; iy++ {
			for ix := 0; ix < 5; ix++ {
				in += h.Counts[iy][ix]
			}
		}
		return float64(in) / float64(h.Total)
	}
	if origin(6) < origin(0)+0.2 {
		t.Errorf("no convergence: origin fraction gen0=%.2f gen6=%.2f", origin(0), origin(6))
	}
	if !strings.Contains(f.Render(), "generation 6") {
		t.Error("Render missing generations")
	}
}

func TestFig2FrontierShape(t *testing.T) {
	c := paperCampaign(t)
	points := Fig2(c)
	if len(points) < 3 || len(points) > 20 {
		t.Fatalf("frontier has %d points; paper found 8", len(points))
	}
	// Sorted by force ascending, energy must be descending (Pareto).
	for i := 1; i < len(points); i++ {
		if points[i].ForceError < points[i-1].ForceError {
			t.Error("frontier not sorted by force")
		}
		if points[i].EnergyError > points[i-1].EnergyError {
			t.Errorf("frontier not Pareto: energy rises with force at %d", i)
		}
	}
	// Band check (shape, not absolute): the paper's frontier spans force
	// ≈[0.0357, 0.0409] and energy ≈[0.0004, 0.0016].
	first, last := points[0], points[len(points)-1]
	if first.ForceError < 0.03 || first.ForceError > 0.045 {
		t.Errorf("best force %.4f outside plausible band", first.ForceError)
	}
	if last.EnergyError < 0.0002 || last.EnergyError > 0.001 {
		t.Errorf("best energy %.4f outside plausible band", last.EnergyError)
	}
	if first.EnergyError < 2*last.EnergyError {
		t.Errorf("no energy spread across frontier: %.4f vs %.4f", first.EnergyError, last.EnergyError)
	}
	if !strings.Contains(RenderFig2(c), "frontier") {
		t.Error("RenderFig2 missing content")
	}
}

func TestTable2Rendering(t *testing.T) {
	c := paperCampaign(t)
	text := RenderTable2(c)
	if !strings.Contains(text, "force error (eV/Å)") {
		t.Errorf("Table 2 header missing:\n%s", text)
	}
	if len(strings.Split(strings.TrimSpace(text), "\n")) < 4 {
		t.Errorf("Table 2 too short:\n%s", text)
	}
}

func TestFig3InsightsMatchPaperFindings(t *testing.T) {
	c := paperCampaign(t)
	ins := AnalyzeFig3(c)
	if ins.Accurate == 0 || ins.Total == 0 {
		t.Fatal("no solutions analyzed")
	}
	// §3.2: no accurate solution with rcut below 8.5 Å (allow a small
	// numerical skirt).
	if ins.MinAccurateRCut < 8.3 {
		t.Errorf("accurate solution with rcut %.2f; paper observed none below 8.5", ins.MinAccurateRCut)
	}
	// §3.2: all runtimes below 80 minutes.
	if ins.MaxRuntimeMinutes >= 80 {
		t.Errorf("max runtime %.1f min; paper observed all below 80", ins.MaxRuntimeMinutes)
	}
	// §3.2: relu/relu6 fitting activations dropped out completely.
	if ins.AccurateFitCounts["relu"] != 0 || ins.AccurateFitCounts["relu6"] != 0 {
		t.Errorf("relu fitting activations in accurate set: %v", ins.AccurateFitCounts)
	}
	// §3.2: sigmoid descriptor activation not in any accurate solution.
	if ins.AccurateDescCounts["sigmoid"] != 0 {
		t.Errorf("sigmoid descriptor in accurate set: %v", ins.AccurateDescCounts)
	}
	// §3.2: sqrt/none provide more accurate solutions than linear.
	if ins.AccurateScaleCounts["linear"] >= ins.AccurateScaleCounts["none"]+ins.AccurateScaleCounts["sqrt"] {
		t.Errorf("linear scaling dominates accurate set: %v", ins.AccurateScaleCounts)
	}
	text := RenderFig3(c)
	if !strings.Contains(text, "chemically accurate") {
		t.Error("RenderFig3 missing summary")
	}
}

func TestFig3RowShape(t *testing.T) {
	c := paperCampaign(t)
	p := Fig3(c)
	if len(p.Axes) != len(Fig3Axes) {
		t.Fatal("axes mismatch")
	}
	if len(p.Rows) == 0 {
		t.Fatal("no rows")
	}
	for _, row := range p.Rows[:10] {
		if row[2] < 6 || row[2] > 12 {
			t.Errorf("rcut axis value %v out of bounds", row[2])
		}
		if row[10] != 0 && row[10] != 1 {
			t.Errorf("on_frontier axis value %v not boolean", row[10])
		}
	}
}

func TestTable3Selection(t *testing.T) {
	c := paperCampaign(t)
	t3, err := Table3(c)
	if err != nil {
		t.Fatalf("Table3: %v", err)
	}
	// All three selections must be chemically accurate.
	for name, p := range map[string]FrontierPoint{
		"lowest force": t3.LowestForce, "lowest energy": t3.LowestEnergy, "lowest runtime": t3.LowestRuntime,
	} {
		if p.ForceError >= 0.04 || p.EnergyError >= 0.004 {
			t.Errorf("%s solution not chemically accurate: %+v", name, p)
		}
	}
	// Selection keys must actually be minimal among the three.
	if t3.LowestForce.ForceError > t3.LowestEnergy.ForceError ||
		t3.LowestForce.ForceError > t3.LowestRuntime.ForceError {
		t.Error("lowest-force selection not lowest")
	}
	if t3.LowestEnergy.EnergyError > t3.LowestForce.EnergyError ||
		t3.LowestEnergy.EnergyError > t3.LowestRuntime.EnergyError {
		t.Error("lowest-energy selection not lowest")
	}
	if t3.LowestRuntime.Runtime > t3.LowestForce.Runtime ||
		t3.LowestRuntime.Runtime > t3.LowestEnergy.Runtime {
		t.Error("lowest-runtime selection not lowest")
	}
	text, err := RenderTable3(c)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"start_lr", "runtime (min.)", "force loss"} {
		if !strings.Contains(text, want) {
			t.Errorf("Table 3 missing %q", want)
		}
	}
}

func TestFailureAccounting(t *testing.T) {
	c := paperCampaign(t)
	r := Failures(c)
	if r.TotalEvaluations != 3500 {
		t.Errorf("evaluations = %d", r.TotalEvaluations)
	}
	// Paper: 25 failures; accept the same order of magnitude.
	if r.Total < 5 || r.Total > 80 {
		t.Errorf("failures = %d; paper observed 25", r.Total)
	}
	// Paper: none in the last generation (tolerate ≤1 across 5 runs).
	if r.LastGen > 1 {
		t.Errorf("last-generation failures = %d; paper observed 0", r.LastGen)
	}
	sum := 0
	for _, n := range r.PerGeneration {
		sum += n
	}
	if sum != r.Total {
		t.Errorf("per-generation sum %d != total %d", sum, r.Total)
	}
	if !strings.Contains(RenderFailures(c), "paper: 25") {
		t.Error("RenderFailures missing comparison")
	}
}

func TestSmallCampaignOptions(t *testing.T) {
	c, err := RunPaperCampaign(context.Background(), Options{
		Runs: 2, PopSize: 20, Generations: 2, Seed: 9, Parallelism: 4,
	})
	if err != nil {
		t.Fatalf("RunPaperCampaign(small): %v", err)
	}
	if c.Result.TotalEvaluations() != 2*3*20 {
		t.Errorf("small campaign evaluations = %d", c.Result.TotalEvaluations())
	}
	if len(Fig1(c).Hists) != 3 {
		t.Error("Fig1 generation count wrong for small campaign")
	}
}
