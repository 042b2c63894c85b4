package hpo

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/dataset"
	"repro/internal/deepmd"
	"repro/internal/ea"
	"repro/internal/md"
)

func TestPaperRepresentationMatchesTable1(t *testing.T) {
	rep := PaperRepresentation()
	if len(rep.Bounds) != NumGenes || len(rep.Std) != NumGenes {
		t.Fatalf("representation sizes %d/%d, want %d", len(rep.Bounds), len(rep.Std), NumGenes)
	}
	cases := []struct {
		gene     int
		lo, hi   float64
		std      float64
		geneName string
	}{
		{GeneStartLR, 3.51e-8, 0.01, 0.001, "start_lr"},
		{GeneStopLR, 3.51e-8, 0.0001, 0.0001, "stop_lr"},
		{GeneRCut, 6.0, 12.0, 0.0625, "rcut"},
		{GeneRCutSmth, 2.0, 6.0, 0.0625, "rcut_smth"},
		{GeneScaleByWorker, 0.0, 3.0, 0.0625, "scale_by_worker"},
		{GeneDescActivFunc, 0.0, 5.0, 0.0625, "desc_activ_func"},
		{GeneFittingActivFunc, 0.0, 5.0, 0.0625, "fitting_activ_func"},
	}
	for _, c := range cases {
		if rep.Bounds[c.gene].Lo != c.lo || rep.Bounds[c.gene].Hi != c.hi {
			t.Errorf("%s bounds = %v, want [%v, %v]", c.geneName, rep.Bounds[c.gene], c.lo, c.hi)
		}
		if rep.Std[c.gene] != c.std {
			t.Errorf("%s std = %v, want %v", c.geneName, rep.Std[c.gene], c.std)
		}
		if GeneNames[c.gene] != c.geneName {
			t.Errorf("gene %d name = %q, want %q", c.gene, GeneNames[c.gene], c.geneName)
		}
	}
}

func TestDecodeCategoricalPaperExample(t *testing.T) {
	// §2.2.2: gene 5.78 with 3 categories → floor(5.78) % 3 = 2 → "none".
	if got := DecodeCategorical(5.78, 3); got != 2 {
		t.Errorf("DecodeCategorical(5.78, 3) = %d, want 2", got)
	}
	if got := DecodeCategorical(0.99, 5); got != 0 {
		t.Errorf("DecodeCategorical(0.99, 5) = %d, want 0", got)
	}
	if got := DecodeCategorical(4.01, 5); got != 4 {
		t.Errorf("DecodeCategorical(4.01, 5) = %d, want 4", got)
	}
	// Negative genes (possible before clamping) still land in range.
	if got := DecodeCategorical(-0.5, 3); got < 0 || got > 2 {
		t.Errorf("DecodeCategorical(-0.5, 3) = %d out of range", got)
	}
}

func TestQuickDecodeCategoricalAlwaysValid(t *testing.T) {
	f := func(gene float64, n uint8) bool {
		if math.IsNaN(gene) || math.IsInf(gene, 0) || math.Abs(gene) > 1e12 {
			return true
		}
		size := int(n%7) + 1
		idx := DecodeCategorical(gene, size)
		return idx >= 0 && idx < size
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDecodeFullGenome(t *testing.T) {
	g := ea.Genome{0.0047, 0.0001, 11.32, 2.42, 2.5, 4.2, 4.9}
	h, err := Decode(g)
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if h.StartLR != 0.0047 || h.StopLR != 0.0001 || h.RCut != 11.32 || h.RCutSmth != 2.42 {
		t.Errorf("continuous genes wrong: %+v", h)
	}
	if h.ScaleByWorker != "none" { // floor(2.5)%3 = 2
		t.Errorf("scale = %q, want none", h.ScaleByWorker)
	}
	if h.DescActiv != "tanh" || h.FittingActiv != "tanh" { // floor(4.x)%5 = 4
		t.Errorf("activations = %q, %q, want tanh", h.DescActiv, h.FittingActiv)
	}
}

func TestDecodeRejectsWrongLength(t *testing.T) {
	if _, err := Decode(ea.Genome{1, 2}); err == nil {
		t.Error("short genome accepted")
	}
}

func TestDecodeRepairsInconsistentGenes(t *testing.T) {
	// stop_lr > start_lr must be repaired.
	g := ea.Genome{1e-6, 1e-4, 8, 3, 0.5, 0.5, 0.5}
	h, err := Decode(g)
	if err != nil {
		t.Fatal(err)
	}
	if h.StopLR > h.StartLR {
		t.Errorf("stop_lr %v > start_lr %v after decode", h.StopLR, h.StartLR)
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	for _, h := range []HParams{
		{0.0047, 0.0001, 11.32, 2.42, "none", "tanh", "tanh"},
		{0.0058, 0.0001, 10.10, 2.11, "none", "softplus", "tanh"},
		{0.01, 2e-05, 11.32, 2.43, "linear", "relu", "sigmoid"},
		{0.001, 1e-05, 6.5, 5.5, "sqrt", "relu6", "softplus"},
	} {
		g, err := Encode(h)
		if err != nil {
			t.Fatalf("Encode(%v): %v", h, err)
		}
		got, err := Decode(g)
		if err != nil {
			t.Fatalf("Decode: %v", err)
		}
		if got != h {
			t.Errorf("round trip: got %+v, want %+v", got, h)
		}
	}
	if _, err := Encode(HParams{ScaleByWorker: "bogus", DescActiv: "tanh", FittingActiv: "tanh"}); err == nil {
		t.Error("Encode accepted bogus categorical")
	}
}

func TestDecodedRandomGenomesAlwaysValid(t *testing.T) {
	rep := PaperRepresentation()
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 500; i++ {
		h, err := Decode(rep.Bounds.Sample(rng))
		if err != nil {
			t.Fatalf("Decode random: %v", err)
		}
		if h.StartLR <= 0 || h.StopLR <= 0 || h.StopLR > h.StartLR {
			t.Errorf("bad learning rates: %+v", h)
		}
		if h.RCutSmth >= h.RCut {
			t.Errorf("rcut_smth %v >= rcut %v", h.RCutSmth, h.RCut)
		}
		valid := map[string]bool{"linear": true, "sqrt": true, "none": true}
		if !valid[h.ScaleByWorker] {
			t.Errorf("bad scale %q", h.ScaleByWorker)
		}
	}
}

func TestSubstitute(t *testing.T) {
	out, err := Substitute("lr=$start_lr act=${desc} esc=$$x", map[string]string{
		"start_lr": "0.001", "desc": "tanh",
	})
	if err != nil {
		t.Fatalf("Substitute: %v", err)
	}
	if out != "lr=0.001 act=tanh esc=$x" {
		t.Errorf("Substitute = %q", out)
	}
}

func TestSubstituteErrors(t *testing.T) {
	if _, err := Substitute("$missing", map[string]string{}); err == nil {
		t.Error("missing placeholder accepted")
	}
	if _, err := Substitute("${unterminated", map[string]string{"unterminated": "x"}); err == nil {
		t.Error("unterminated brace accepted")
	}
	if _, err := Substitute("lone $ here", nil); err == nil {
		t.Error("lone $ accepted")
	}
}

func TestRenderInputProducesValidJSON(t *testing.T) {
	h := HParams{0.0047, 0.0001, 8.77, 2.42, "none", "tanh", "softplus"}
	vars := TemplateVars(h, 40000, 1000, 1, "/data/train", "/data/val")
	text, err := RenderInput("", vars)
	if err != nil {
		t.Fatalf("RenderInput: %v", err)
	}
	in, err := deepmd.ParseInput(strings.NewReader(text))
	if err != nil {
		t.Fatalf("rendered input.json does not parse: %v\n%s", err, text)
	}
	if err := in.Validate(); err != nil {
		t.Fatalf("rendered input.json invalid: %v", err)
	}
	if in.Model.Descriptor.RCut != 8.77 || in.Model.FittingNet.ActivationFunction != "softplus" {
		t.Errorf("values not substituted: %+v", in.Model)
	}
	if in.Training.NumbSteps != 40000 {
		t.Errorf("numb_steps = %d", in.Training.NumbSteps)
	}
	// Fixed (non-tuned) parameters of §2.1.2 must be present.
	if len(in.Model.Descriptor.Neuron) != 3 || in.Model.Descriptor.Neuron[2] != 100 {
		t.Errorf("embedding sizes = %v, want [25 50 100]", in.Model.Descriptor.Neuron)
	}
	if in.Loss.StartPrefF != 1000 || in.Loss.StartPrefE != 0.02 {
		t.Errorf("prefactors = %+v", in.Loss)
	}
}

// fakeTrainer writes a canned lcurve.out.
type fakeTrainer struct {
	rmseE, rmseF float64
	fail         bool
	sawInput     *deepmd.Input
}

func (f *fakeTrainer) Train(_ context.Context, inputPath, runDir string) error {
	in, err := deepmd.ParseInputFile(inputPath)
	if err != nil {
		return err
	}
	f.sawInput = in
	if f.fail {
		return fmt.Errorf("simulated dp crash")
	}
	content := fmt.Sprintf("#  step      rmse_e_val    rmse_e_trn    rmse_f_val    rmse_f_trn         lr\n"+
		"  1000    %e    1e-3    %e    3e-2    1e-3\n", f.rmseE, f.rmseF)
	return os.WriteFile(filepath.Join(runDir, "lcurve.out"), []byte(content), 0o644)
}

func TestWorkflowEvaluatorEndToEnd(t *testing.T) {
	ft := &fakeTrainer{rmseE: 0.0016, rmseF: 0.0357}
	w := &WorkflowEvaluator{
		WorkDir: t.TempDir(),
		Steps:   40000, DispFreq: 1000, Seed: 7,
		TrainDir: "/tmp/train", ValDir: "/tmp/val",
		Trainer: ft,
	}
	g, _ := Encode(HParams{0.0047, 0.0001, 11.32, 2.42, "none", "tanh", "tanh"})
	fit, err := w.Evaluate(context.Background(), g)
	if err != nil {
		t.Fatalf("Evaluate: %v", err)
	}
	if math.Abs(fit[0]-0.0016) > 1e-9 || math.Abs(fit[1]-0.0357) > 1e-9 {
		t.Errorf("fitness = %v, want [0.0016 0.0357]", fit)
	}
	if ft.sawInput.Model.Descriptor.RCut != 11.32 {
		t.Errorf("trainer saw rcut %v", ft.sawInput.Model.Descriptor.RCut)
	}
	if ft.sawInput.LearningRate.ScaleByWorker != "none" {
		t.Errorf("trainer saw scale %q", ft.sawInput.LearningRate.ScaleByWorker)
	}
}

func TestWorkflowEvaluatorTrainingFailure(t *testing.T) {
	w := &WorkflowEvaluator{
		WorkDir: t.TempDir(),
		Steps:   100, DispFreq: 10,
		Trainer: &fakeTrainer{fail: true},
	}
	g, _ := Encode(HParams{0.001, 1e-5, 8, 3, "none", "tanh", "tanh"})
	if _, err := w.Evaluate(context.Background(), g); err == nil {
		t.Error("failed training returned nil error")
	}
}

func TestWorkflowEvaluatorKeepsRunDir(t *testing.T) {
	dir := t.TempDir()
	w := &WorkflowEvaluator{
		WorkDir: dir, Steps: 1, DispFreq: 1,
		Trainer: &fakeTrainer{rmseE: 1, rmseF: 1},
		Keep:    true,
	}
	g, _ := Encode(HParams{0.001, 1e-5, 8, 3, "none", "tanh", "tanh"})
	if _, err := w.Evaluate(context.Background(), g); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("expected 1 UUID run dir, found %d", len(entries))
	}
	// The directory must be named by a UUID and contain input.json +
	// lcurve.out (§2.2.4 steps 2-4).
	name := entries[0].Name()
	if len(name) != 36 || strings.Count(name, "-") != 4 {
		t.Errorf("run dir %q not UUID-named", name)
	}
	for _, f := range []string{"input.json", "lcurve.out"} {
		if _, err := os.Stat(filepath.Join(dir, name, f)); err != nil {
			t.Errorf("missing %s: %v", f, err)
		}
	}
}

func TestRealTrainerEndToEnd(t *testing.T) {
	// A miniature but genuine pipeline: MD data → decode genome → render
	// input.json → train a real model → read fitness from lcurve.out.
	rng := rand.New(rand.NewSource(3))
	species := []md.Species{md.Al, md.Cl, md.Cl, md.Cl, md.K, md.Cl}
	pot := md.NewPaperBMH(4.0)
	data := dataset.Generate(rng, species, 7.0, 498, pot, 0.5, 50, 10, 12)
	data.Shuffle(rng)
	train, val := data.Split(0.25)

	rt := &RealTrainer{Train: train, Val: val, Workers: 2, StepsOverride: 30, ValFrames: 3}
	w := &WorkflowEvaluator{
		WorkDir: t.TempDir(),
		// Use a tiny-network template so the test stays fast.
		Template: strings.Replace(strings.Replace(DefaultInputTemplate,
			"[25, 50, 100]", "[4, 8]", 1),
			"[240, 240, 240]", "[8]", 1),
		Steps: 30, DispFreq: 15, Seed: 5,
		TrainDir: "unused", ValDir: "unused",
		Trainer: TrainerFunc(rt.TrainRun),
	}
	g, _ := Encode(HParams{0.005, 1e-4, 3.5, 2.0, "none", "tanh", "tanh"})
	fit, err := w.Evaluate(context.Background(), g)
	if err != nil {
		t.Fatalf("Evaluate: %v", err)
	}
	if len(fit) != 2 || fit[0] <= 0 || fit[1] <= 0 {
		t.Errorf("fitness = %v, want two positive losses", fit)
	}
}

func TestCampaignSmoke(t *testing.T) {
	// Tiny campaign against an analytic evaluator: checks plumbing,
	// aggregation, and failure accounting.
	calls := 0
	ev := ea.EvaluatorFunc(func(_ context.Context, g ea.Genome) (ea.Fitness, error) {
		calls++
		if calls%29 == 0 {
			return nil, fmt.Errorf("injected failure")
		}
		h, err := Decode(g)
		if err != nil {
			return nil, err
		}
		return ea.Fitness{h.StartLR, 12 - h.RCut}, nil
	})
	res, err := RunCampaign(context.Background(), CampaignConfig{
		Runs: 2, PopSize: 10, Generations: 3,
		Evaluator: ev, Parallelism: 1, AnnealFactor: 0.85, BaseSeed: 42,
	})
	if err != nil {
		t.Fatalf("RunCampaign: %v", err)
	}
	if len(res.Runs) != 2 {
		t.Fatalf("got %d runs", len(res.Runs))
	}
	if got := res.TotalEvaluations(); got != 2*4*10 {
		t.Errorf("TotalEvaluations = %d, want 80", got)
	}
	if res.TotalFailures() == 0 {
		t.Error("no failures recorded despite injection")
	}
	if got := len(res.LastGenerations()); got != 20 {
		t.Errorf("pooled last generations = %d, want 20", got)
	}
	front := res.ParetoFront()
	if len(front) == 0 || len(front) > 20 {
		t.Errorf("Pareto front size %d", len(front))
	}
}

func TestCampaignRequiresRuns(t *testing.T) {
	_, err := RunCampaign(context.Background(), CampaignConfig{Runs: 0})
	if err == nil {
		t.Error("Runs=0 accepted")
	}
}

func TestChemicallyAccurate(t *testing.T) {
	cases := []struct {
		f    ea.Fitness
		want bool
	}{
		{ea.Fitness{0.001, 0.035}, true},
		{ea.Fitness{0.005, 0.035}, false}, // energy too high
		{ea.Fitness{0.001, 0.041}, false}, // force too high
		{ea.Fitness{0.0039, 0.0399}, true},
		{ChemicalAccuracy, false}, // the limits are strict
		{ea.FailureFitness(2), false},
		{ea.Fitness{0.001}, false}, // wrong arity
	}
	for _, c := range cases {
		if got := ChemicallyAccurate(c.f); got != c.want {
			t.Errorf("ChemicallyAccurate(%v) = %v, want %v", c.f, got, c.want)
		}
	}
}

func TestFilterChemicallyAccurate(t *testing.T) {
	pop := ea.Population{
		{Evaluated: true, Fitness: ea.Fitness{0.001, 0.035}},
		{Evaluated: true, Fitness: ea.Fitness{0.01, 0.5}},
		{Evaluated: false},
	}
	got := FilterChemicallyAccurate(pop)
	if len(got) != 1 || got[0] != pop[0] {
		t.Errorf("filtered %d members", len(got))
	}
}

func TestCampaignEvalTimeout(t *testing.T) {
	slow := ea.EvaluatorFunc(func(ctx context.Context, _ ea.Genome) (ea.Fitness, error) {
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-time.After(time.Second):
			return ea.Fitness{1, 1}, nil
		}
	})
	res, err := RunCampaign(context.Background(), CampaignConfig{
		Runs: 1, PopSize: 4, Generations: 1,
		Evaluator: slow, Parallelism: 4,
		EvalTimeout: 5 * time.Millisecond, BaseSeed: 1,
	})
	if err != nil {
		t.Fatalf("RunCampaign: %v", err)
	}
	if res.TotalFailures() != res.TotalEvaluations() {
		t.Errorf("expected all evaluations to time out: %d of %d",
			res.TotalFailures(), res.TotalEvaluations())
	}
}

// TestEstimateNeighborsWrapsAnyCoordinate feeds estimateNeighbors frames
// whose atoms sit far outside the box.  A displacement is wrapped in one
// step, so a non-finite or remote coordinate returns at once, and stored
// images of the same atoms count the same neighbours as the wrapped frame.
func TestEstimateNeighborsWrapsAnyCoordinate(t *testing.T) {
	const box, rcut = 10.0, 4.7
	// Atoms 0 and 1 are 1 Å apart across the x boundary, 2 and 3 are 2 Å
	// apart inside the box, and 1 and 2 are 4.5 Å apart: four ordered
	// pairs over four atoms within rcut.
	wrapped := []float64{0.5, 5, 5, 9.5, 5, 5, 5, 5, 5, 5, 7, 5}
	shift := func(by []float64) []float64 {
		c := append([]float64(nil), wrapped...)
		for k := range c {
			c[k] += by[k/3] * box
		}
		return c
	}
	for _, tc := range []struct {
		name  string
		coord []float64
		want  float64
	}{
		{"wrapped", wrapped, 2},
		{"three boxes away", shift([]float64{3, -3, 3, -3}), 2},
		{"1e11 boxes away", shift([]float64{1e11, 0, 0, 0}), 2},
		// Every pair with atom 0 is NaN apart and never counts; the ordered
		// pairs 1–2, 2–1, 2–3 and 3–2 remain, so the average is 1.
		{"+Inf coordinate", append([]float64{math.Inf(1)}, wrapped[1:]...), 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			src := &dataset.Dataset{
				Types:  []int{0, 1, 0, 1},
				Frames: []dataset.Frame{{Coord: tc.coord, Box: box}},
			}
			done := make(chan float64, 1)
			go func() {
				got, err := estimateNeighbors(src, rcut)
				if err != nil {
					t.Error(err)
				}
				done <- got
			}()
			select {
			case got := <-done:
				if got != tc.want {
					t.Errorf("estimateNeighbors = %v, want %v", got, tc.want)
				}
			case <-time.After(5 * time.Second):
				t.Fatal("estimateNeighbors did not return within 5 s")
			}
		})
	}
}

// allPairsNeighbors is the all-pairs scan estimateNeighbors ran before it
// read its count off a neighbor.List, kept here as the oracle.
func allPairsNeighbors(f *dataset.Frame, n int, rcut float64) float64 {
	count := 0
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i == j {
				continue
			}
			r2 := 0.0
			for k := 0; k < 3; k++ {
				dk := f.Coord[3*j+k] - f.Coord[3*i+k]
				if f.Box > 0 {
					dk -= f.Box * math.Round(dk/f.Box)
				}
				r2 += dk * dk
			}
			if r2 < rcut*rcut {
				count++
			}
		}
	}
	avg := float64(count) / float64(n)
	if avg < 1 {
		avg = 1
	}
	return avg
}

// TestEstimateNeighborsMatchesAllPairs holds the list-based count to the
// all-pairs oracle bit for bit on the list's three build paths: a small
// periodic frame (the quadratic scan below 32 atoms), a paper-size cell
// at least three cutoffs wide (the cell grid), and open boundaries.
// Periodic coordinates range over three boxes so the wrap is exercised.
func TestEstimateNeighborsMatchesAllPairs(t *testing.T) {
	rng := rand.New(rand.NewSource(46))
	frame := func(n int, box, ext float64) dataset.Frame {
		coord := make([]float64, 3*n)
		for k := range coord {
			coord[k] = ext * rng.Float64()
			if box > 0 {
				coord[k] -= box
			}
		}
		return dataset.Frame{Coord: coord, Box: box}
	}
	for _, tc := range []struct {
		name  string
		n     int
		box   float64
		ext   float64
		rcuts []float64
	}{
		{"brute path", 20, 7, 21, []float64{1.5, 2.5, 3.5}},
		{"cell grid", 160, 17.84, 3 * 17.84, []float64{4, 5, 5.9}},
		{"open boundaries", 60, 0, 15, []float64{3, 4, 8}},
	} {
		f := frame(tc.n, tc.box, tc.ext)
		src := &dataset.Dataset{Types: make([]int, tc.n), Frames: []dataset.Frame{f}}
		for _, rcut := range tc.rcuts {
			got, err := estimateNeighbors(src, rcut)
			if err != nil {
				t.Fatal(err)
			}
			if want := allPairsNeighbors(&f, tc.n, rcut); math.Float64bits(got) != math.Float64bits(want) {
				t.Errorf("%s, rcut %v: estimateNeighbors = %v, all pairs %v", tc.name, rcut, got, want)
			}
		}
	}
}

// firstReadFails is a training set whose first read of frame 0 fails.
// Every later read succeeds, so only a caller that checks that first read
// sees the failure.
type firstReadFails struct {
	*dataset.Dataset
	failed atomic.Bool
}

var errFirstRead = errors.New("firstReadFails: injected read failure")

func (f *firstReadFails) Frame(i int) (*dataset.Frame, error) {
	if i == 0 && f.failed.CompareAndSwap(false, true) {
		return nil, errFirstRead
	}
	return f.Dataset.Frame(i)
}

// TestRealTrainerReturnsFrameReadError: when the read of frame 0 that
// sets the neighbour normalization fails, the training fails with it and
// the workflow's caller sees the read error (the EA assigns MAXINT),
// instead of a run that trains with a default normalization.
func TestRealTrainerReturnsFrameReadError(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	species := []md.Species{md.Al, md.Cl, md.Cl, md.Cl, md.K, md.Cl}
	data := dataset.Generate(rng, species, 7.0, 498, md.NewPaperBMH(4.0), 0.5, 20, 5, 4)
	train, val := data.Split(0.25)
	rt := &RealTrainer{Train: &firstReadFails{Dataset: train}, Val: val, Workers: 1, StepsOverride: 2, ValFrames: 1}
	w := &WorkflowEvaluator{
		WorkDir: t.TempDir(),
		Template: strings.Replace(strings.Replace(DefaultInputTemplate,
			"[25, 50, 100]", "[4, 8]", 1),
			"[240, 240, 240]", "[8]", 1),
		Steps: 2, DispFreq: 1, Seed: 5,
		TrainDir: "unused", ValDir: "unused",
		Trainer: TrainerFunc(rt.TrainRun),
	}
	g, _ := Encode(HParams{0.005, 1e-4, 3.5, 2.0, "none", "tanh", "tanh"})
	if _, err := w.Evaluate(context.Background(), g); !errors.Is(err, errFirstRead) {
		t.Fatalf("Evaluate error = %v, want the frame read error", err)
	}
}
