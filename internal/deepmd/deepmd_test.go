package deepmd

import (
	"bytes"
	"context"
	"encoding/gob"
	"math"
	"math/rand"
	"runtime"
	"strings"
	"testing"

	"repro/internal/dataset"
	"repro/internal/descriptor"
	"repro/internal/md"
	"repro/internal/nn"
)

func tinyModelConfig() ModelConfig {
	return ModelConfig{
		Descriptor: descriptor.Config{
			RCut: 4.0, RCutSmth: 1.0,
			EmbeddingSizes: []int{4, 8},
			AxisNeurons:    2,
			Activation:     nn.Tanh,
			NumSpecies:     3,
			NeighborNorm:   6,
		},
		FittingSizes:      []int{10},
		FittingActivation: nn.Tanh,
		NumSpecies:        3,
	}
}

func tinyData(t *testing.T, frames int) *dataset.Dataset {
	t.Helper()
	rng := rand.New(rand.NewSource(11))
	species := []md.Species{md.Al, md.Cl, md.Cl, md.Cl, md.K, md.Cl}
	pot := md.NewPaperBMH(4.0)
	d := dataset.Generate(rng, species, 7.0, 498, pot, 0.5, 100, 10, frames)
	return d
}

func TestModelForcesMatchFiniteDifference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	m, err := NewModel(rng, tinyModelConfig())
	if err != nil {
		t.Fatalf("NewModel: %v", err)
	}
	d := tinyData(t, 1)
	fr := &d.Frames[0]

	_, forces := m.EnergyForces(fr.Coord, d.Types, fr.Box)
	const h = 1e-5
	coord := append([]float64(nil), fr.Coord...)
	for k := 0; k < len(coord); k += 4 {
		orig := coord[k]
		coord[k] = orig + h
		ep := m.Energy(coord, d.Types, fr.Box)
		coord[k] = orig - h
		em := m.Energy(coord, d.Types, fr.Box)
		coord[k] = orig
		fd := -(ep - em) / (2 * h)
		if math.Abs(fd-forces[k]) > 1e-4*(1+math.Abs(fd)) {
			t.Errorf("force[%d] = %v, finite diff %v", k, forces[k], fd)
		}
	}
}

func TestModelEnergyPermutationInvariance(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	m, _ := NewModel(rng, tinyModelConfig())
	d := tinyData(t, 1)
	fr := &d.Frames[0]
	e1 := m.Energy(fr.Coord, d.Types, fr.Box)

	// Swap two same-species atoms (indices 1 and 2 are both Cl).
	coord := append([]float64(nil), fr.Coord...)
	for k := 0; k < 3; k++ {
		coord[3*1+k], coord[3*2+k] = coord[3*2+k], coord[3*1+k]
	}
	e2 := m.Energy(coord, d.Types, fr.Box)
	if math.Abs(e1-e2) > 1e-9 {
		t.Errorf("energy changed under same-species swap: %v vs %v", e1, e2)
	}
}

// probeIndices returns the arena indices the finite-difference checks
// probe: every 11th entry of each layer's W and of its B, each tensor from
// its first entry, so every bias is probed too.
func probeIndices(m *Model) []int {
	var idx []int
	off := 0
	for _, l := range m.layers {
		for _, n := range [2]int{l.In * l.Out, l.Out} {
			for j := 0; j < n; j += 11 {
				idx = append(idx, off+j)
			}
			off += n
		}
	}
	return idx
}

func TestAccumulateEnergyGradMatchesFiniteDifference(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	m, _ := NewModel(rng, tinyModelConfig())
	d := tinyData(t, 1)
	fr := &d.Frames[0]

	m.ZeroGrad()
	m.AccumulateEnergyGrad(fr.Coord, d.Types, fr.Box, 1.0)

	const h = 1e-6
	for _, j := range probeIndices(m) {
		orig := m.param[j]
		m.param[j] = orig + h
		ep := m.Energy(fr.Coord, d.Types, fr.Box)
		m.param[j] = orig - h
		em := m.Energy(fr.Coord, d.Types, fr.Box)
		m.param[j] = orig
		fd := (ep - em) / (2 * h)
		if math.Abs(fd-m.grad[j]) > 1e-4*(1+math.Abs(fd)) {
			t.Errorf("param[%d]: grad %v, finite diff %v", j, m.grad[j], fd)
		}
	}
}

// TestBatchGradMatchesLossFiniteDifference checks the gradient training
// actually applies — accumulateBatchGrad, energy and force terms, on a
// one-frame and a two-frame worker batch — against central finite
// differences of the summed frame loss p_e·(ΔE/N)² + p_f/(3N)·‖ΔF‖²
// evaluated through EnergyForces.
func TestBatchGradMatchesLossFiniteDifference(t *testing.T) {
	d := tinyData(t, 2)
	const pe, pf = 0.7, 1.3
	for _, frames := range [][]*dataset.Frame{{&d.Frames[0]}, {&d.Frames[0], &d.Frames[1]}} {
		m, _ := NewModel(rand.New(rand.NewSource(3)), tinyModelConfig())
		loss := func() float64 {
			sum := 0.0
			for _, fr := range frames {
				e, f := m.EnergyForces(fr.Coord, d.Types, fr.Box)
				de, frmse := FrameErrors(fr, e, f)
				sum += pe*de*de + pf*frmse*frmse
			}
			return sum
		}
		m.ZeroGrad()
		if err := m.accumulateBatchGrad(&batchScratch{}, d.Types, frames, pe, pf, 1e-4); err != nil {
			t.Fatal(err)
		}
		const h = 1e-6
		for _, j := range probeIndices(m) {
			orig := m.param[j]
			m.param[j] = orig + h
			lp := loss()
			m.param[j] = orig - h
			lm := loss()
			m.param[j] = orig
			fd := (lp - lm) / (2 * h)
			// The untrained model's gradients are small (1e-9 … 1e-2):
			// relative tolerance above the difference quotient's
			// rounding floor.
			if math.Abs(fd-m.grad[j]) > 1e-3*math.Abs(fd)+5e-10 {
				t.Errorf("%d frames, param[%d]: grad %v, finite diff %v", len(frames), j, m.grad[j], fd)
			}
		}
	}
}

// TestBatchGradSteadyStateAllocs pins a worker's step on a replica —
// binding the replica's gradient views to the worker's buffer, clearing
// it and the fused training sweep — at zero allocations from the second
// call on: the first sizes the workspace, every later one only reuses it.
func TestBatchGradSteadyStateAllocs(t *testing.T) {
	d := tinyData(t, 2)
	m, _ := NewModel(rand.New(rand.NewSource(3)), tinyModelConfig())
	frames := []*dataset.Frame{&d.Frames[0], &d.Frames[1]}
	rep := m.newReplica(1, len(frames))
	bufs := [][]float64{make([]float64, m.ParamCount()), make([]float64, m.ParamCount())}
	step := 0
	sweep := func() {
		grad := bufs[step%2]
		step++
		nn.Bind(rep.m.layers, nil, grad)
		clear(grad)
		if err := rep.m.accumulateBatchGrad(&rep.ws, d.Types, frames, 0.7, 1.3, 1e-4); err != nil {
			t.Fatal(err)
		}
	}
	sweep()
	if got := testing.AllocsPerRun(10, sweep); got != 0 {
		t.Errorf("accumulateBatchGrad: %v allocs/op in steady state, want 0", got)
	}
}

// TestModelArenaViews checks the arena layout after NewModel and after
// LoadModel: every layer's W, B, GradW and GradB is the arena window at
// its table offset with cap == len, so an append to a view reallocates
// instead of overwriting its neighbour, and a gradient accumulated
// through the views is the gradient arena.
func TestModelArenaViews(t *testing.T) {
	built, _ := NewModel(rand.New(rand.NewSource(4)), tinyModelConfig())
	var saved bytes.Buffer
	if err := built.Save(&saved); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadModel(&saved)
	if err != nil {
		t.Fatal(err)
	}
	for name, m := range map[string]*Model{"NewModel": built, "LoadModel": loaded} {
		if want := len(layerTable(m.Cfg)); len(m.layers) != want {
			t.Fatalf("%s: %d layers, want %d", name, len(m.layers), want)
		}
		off := 0
		for i, l := range m.layers {
			for k, v := range [][2][]float64{{l.W, l.GradW}, {l.B, l.GradB}} {
				p, g := v[0], v[1]
				n := len(p)
				if n == 0 || len(g) != n || cap(p) != n || cap(g) != n {
					t.Fatalf("%s: layer %d tensor %d has len %d/%d, cap %d/%d", name, i, k, n, len(g), cap(p), cap(g))
				}
				if &p[0] != &m.param[off] || &g[0] != &m.grad[off] {
					t.Fatalf("%s: layer %d tensor %d is not the arena window at offset %d", name, i, k, off)
				}
				next := off + n
				if next < len(m.param) {
					before := m.param[next]
					grown := append(p, 42)
					if &grown[0] == &m.param[off] || m.param[next] != before {
						t.Fatalf("%s: append to layer %d tensor %d wrote into its neighbour", name, i, k)
					}
				}
				off = next
			}
		}
		if off != len(m.param) || off != m.ParamCount() || len(m.grad) != off {
			t.Fatalf("%s: tensors cover %d of %d parameters", name, off, len(m.param))
		}
	}
	for i := range built.param {
		if built.param[i] != loaded.param[i] {
			t.Fatalf("LoadModel parameter %d = %v, saved %v", i, loaded.param[i], built.param[i])
		}
	}

	d := tinyData(t, 1)
	fr := &d.Frames[0]
	built.ZeroGrad()
	built.AccumulateEnergyGrad(fr.Coord, d.Types, fr.Box, 1.0)
	nonzero := 0
	for _, l := range built.layers {
		for _, g := range append(append([]float64(nil), l.GradW...), l.GradB...) {
			if g != 0 {
				nonzero++
			}
		}
	}
	arena := 0
	for _, g := range built.grad {
		if g != 0 {
			arena++
		}
	}
	if nonzero == 0 || nonzero != arena {
		t.Fatalf("%d nonzero gradients through the views, %d in the arena", nonzero, arena)
	}
}

// allocBytes returns the bytes fn allocates on the heap.
func allocBytes(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestModelAllocatesTwoArenas pins what building and loading the
// paper-shaped model allocate: one parameter arena and one gradient
// arena, 2 × 8 × ParamCount bytes, plus a small fixed slack for the layer
// table and structs.  LoadModel is charged beyond decoding the file, which
// the gob decoder does into its own tensors first.
func TestModelAllocatesTwoArenas(t *testing.T) {
	in, err := ParseInput(strings.NewReader(sampleInput))
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := in.ModelConfig()
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewModel(rand.New(rand.NewSource(1)), cfg)
	if err != nil {
		t.Fatal(err)
	}
	var saved bytes.Buffer
	if err := m.Save(&saved); err != nil {
		t.Fatal(err)
	}
	arenas := uint64(2 * 8 * m.ParamCount())
	const slack = 64 << 10

	built := allocBytes(func() {
		if _, err := NewModel(rand.New(rand.NewSource(1)), cfg); err != nil {
			t.Fatal(err)
		}
	})
	decoded := allocBytes(func() {
		var sm savedModel
		if err := gob.NewDecoder(bytes.NewReader(saved.Bytes())).Decode(&sm); err != nil {
			t.Fatal(err)
		}
	})
	loaded := allocBytes(func() {
		if _, err := LoadModel(bytes.NewReader(saved.Bytes())); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("arenas %d B; NewModel %d B; LoadModel %d B, of which decoding %d B", arenas, built, loaded, decoded)
	if built < arenas || built > arenas+slack {
		t.Errorf("NewModel allocated %d bytes, want the two arenas' %d plus at most %d", built, arenas, slack)
	}
	if loaded < decoded+arenas || loaded > decoded+arenas+slack {
		t.Errorf("LoadModel allocated %d bytes beyond decoding, want the two arenas' %d plus at most %d",
			loaded-decoded, arenas, slack)
	}
}

func TestTrainingReducesLosses(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	m, _ := NewModel(rng, tinyModelConfig())
	d := tinyData(t, 24)
	d.Shuffle(rand.New(rand.NewSource(6)))
	train, val := d.Split(0.25)

	e0, f0 := EvalErrors(m, val, 0)
	cfg := TrainConfig{
		Steps: 150, BatchSize: 2, StartLR: 0.005, StopLR: 1e-4,
		ScaleByWorker: "none", Workers: 1, DispFreq: 50, Seed: 7,
	}
	var buf bytes.Buffer
	res, err := Train(context.Background(), m, train, val, cfg, &buf)
	if err != nil {
		t.Fatalf("Train: %v", err)
	}
	if res.StepsRun != 150 {
		t.Errorf("StepsRun = %d, want 150", res.StepsRun)
	}
	if res.FinalForceRMSE >= f0 {
		t.Errorf("force RMSE did not improve: %v -> %v", f0, res.FinalForceRMSE)
	}
	if res.FinalEnergyRMSE >= e0 {
		t.Errorf("energy RMSE did not improve: %v -> %v", e0, res.FinalEnergyRMSE)
	}
	if !strings.Contains(buf.String(), "rmse_e_val") {
		t.Error("lcurve output missing header")
	}
	recs, err := ReadLCurve(&buf)
	if err != nil {
		t.Fatalf("ReadLCurve: %v", err)
	}
	if len(recs) != len(res.LCurve) {
		t.Errorf("lcurve rows %d, want %d", len(recs), len(res.LCurve))
	}
	last := recs[len(recs)-1]
	if math.Abs(last.RmseEVal-res.FinalEnergyRMSE) > 1e-6*(1+res.FinalEnergyRMSE) {
		t.Errorf("lcurve last rmse_e_val %v != result %v", last.RmseEVal, res.FinalEnergyRMSE)
	}
}

func TestTrainingWithWorkersMatchesSingle(t *testing.T) {
	// With identical total batch content this can't be bit-identical
	// (different RNG draws), but multi-worker training must run and
	// produce finite, improving losses.
	rng := rand.New(rand.NewSource(8))
	m, _ := NewModel(rng, tinyModelConfig())
	d := tinyData(t, 16)
	train, val := d.Split(0.25)
	cfg := TrainConfig{
		Steps: 60, BatchSize: 1, StartLR: 0.003, StopLR: 1e-4,
		ScaleByWorker: "sqrt", Workers: 3, DispFreq: 30, Seed: 9,
	}
	res, err := Train(context.Background(), m, train, val, cfg, nil)
	if err != nil {
		t.Fatalf("Train: %v", err)
	}
	if !finite(res.FinalForceRMSE) || !finite(res.FinalEnergyRMSE) {
		t.Error("non-finite final losses")
	}
}

func TestTrainingDivergesWithAbsurdLR(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	m, _ := NewModel(rng, tinyModelConfig())
	d := tinyData(t, 8)
	train, val := d.Split(0.25)
	cfg := TrainConfig{
		Steps: 400, BatchSize: 1, StartLR: 500.0, StopLR: 499.0,
		ScaleByWorker: "linear", Workers: 6, DispFreq: 10, Seed: 11,
	}
	_, err := Train(context.Background(), m, train, val, cfg, nil)
	// Divergence is expected but not guaranteed; if training survives the
	// losses must at least be finite.
	if err != nil && err != ErrDiverged {
		t.Errorf("unexpected error: %v", err)
	}
}

func TestTrainCancellation(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	m, _ := NewModel(rng, tinyModelConfig())
	d := tinyData(t, 8)
	train, val := d.Split(0.25)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	cfg := TrainConfig{Steps: 100, StartLR: 0.001, StopLR: 1e-5}
	if _, err := Train(ctx, m, train, val, cfg, nil); err == nil {
		t.Error("cancelled training returned nil error")
	}
}

func TestTrainConfigValidation(t *testing.T) {
	bad := []TrainConfig{
		{Steps: 0, StartLR: 0.01, StopLR: 1e-5},
		{Steps: 10, StartLR: 0, StopLR: 1e-5},
		{Steps: 10, StartLR: 1e-5, StopLR: 0.01}, // stop > start
	}
	for i, cfg := range bad {
		if err := cfg.Validate(); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
	good := TrainConfig{Steps: 10, StartLR: 0.01, StopLR: 1e-5}
	if err := good.Validate(); err != nil {
		t.Errorf("good config rejected: %v", err)
	}
	if good.Workers != 1 || good.BatchSize != 1 {
		t.Error("Validate did not default Workers/BatchSize")
	}
}

func TestPrefactorSchedule(t *testing.T) {
	p := PaperPrefactors()
	pe, pf := p.At(1) // start of training
	if math.Abs(pe-0.02) > 1e-12 || math.Abs(pf-1000) > 1e-12 {
		t.Errorf("At(1) = %v, %v; want 0.02, 1000", pe, pf)
	}
	pe, pf = p.At(0) // end of training (lr → 0)
	if math.Abs(pe-1) > 1e-12 || math.Abs(pf-1) > 1e-12 {
		t.Errorf("At(0) = %v, %v; want 1, 1", pe, pf)
	}
	// Force dominates early, energy weight grows monotonically.
	peMid, pfMid := p.At(0.5)
	if pfMid >= 1000 || pfMid <= 1 || peMid >= 1 || peMid <= 0.02 {
		t.Errorf("At(0.5) = %v, %v out of range", peMid, pfMid)
	}
}

func TestFrameErrors(t *testing.T) {
	fr := &dataset.Frame{
		Coord:  make([]float64, 6),
		Force:  []float64{1, 0, 0, 0, 0, 0},
		Energy: 10,
	}
	ePA, fRMSE := FrameErrors(fr, 12, []float64{1, 0, 0, 0, 0, 2})
	if math.Abs(ePA-1) > 1e-12 { // (12-10)/2 atoms
		t.Errorf("ePerAtom = %v, want 1", ePA)
	}
	want := math.Sqrt(4.0 / 6.0)
	if math.Abs(fRMSE-want) > 1e-12 {
		t.Errorf("fRMSE = %v, want %v", fRMSE, want)
	}
}

func TestLCurveRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	writeHeader(&buf)
	recs := []LCurveRecord{
		{Step: 100, RmseEVal: 0.0016, RmseETrn: 0.001, RmseFVal: 0.0357, RmseFTrn: 0.03, LR: 0.001},
		{Step: 200, RmseEVal: 0.0012, RmseETrn: 0.0009, RmseFVal: 0.0351, RmseFTrn: 0.029, LR: 0.0005},
	}
	for _, r := range recs {
		writeRecord(&buf, r)
	}
	got, err := ReadLCurve(&buf)
	if err != nil {
		t.Fatalf("ReadLCurve: %v", err)
	}
	if len(got) != 2 {
		t.Fatalf("got %d records, want 2", len(got))
	}
	if got[1].Step != 200 || math.Abs(got[1].RmseFVal-0.0351) > 1e-6 {
		t.Errorf("record mismatch: %+v", got[1])
	}
}

func TestReadLCurveRejectsMalformed(t *testing.T) {
	if _, err := ReadLCurve(strings.NewReader("1 2 3\n")); err == nil {
		t.Error("data before header accepted")
	}
	if _, err := ReadLCurve(strings.NewReader("# step lr\n1 2 3\n")); err == nil {
		t.Error("column count mismatch accepted")
	}
	if _, err := ReadLCurve(strings.NewReader("# step lr\nx y\n")); err == nil {
		t.Error("non-numeric value accepted")
	}
}

const sampleInput = `{
  "model": {
    "type_map": ["Al", "K", "Cl"],
    "descriptor": {
      "type": "se_e2_a",
      "rcut": 8.77, "rcut_smth": 2.42,
      "neuron": [25, 50, 100], "axis_neuron": 4,
      "activation_function": "tanh"
    },
    "fitting_net": {"neuron": [240, 240, 240], "activation_function": "softplus"}
  },
  "learning_rate": {"type": "exp", "start_lr": 0.0047, "stop_lr": 0.0001, "scale_by_worker": "none"},
  "loss": {"start_pref_e": 0.02, "limit_pref_e": 1, "start_pref_f": 1000, "limit_pref_f": 1},
  "training": {"numb_steps": 40000, "batch_size": 1, "seed": 1, "disp_freq": 1000,
    "systems": ["../data/train"], "validation_data": {"systems": ["../data/val"]}}
}`

func TestParseInput(t *testing.T) {
	in, err := ParseInput(strings.NewReader(sampleInput))
	if err != nil {
		t.Fatalf("ParseInput: %v", err)
	}
	if err := in.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if in.Model.Descriptor.RCut != 8.77 || in.LearningRate.ScaleByWorker != "none" {
		t.Errorf("parsed values wrong: %+v", in)
	}
	mc, err := in.ModelConfig()
	if err != nil {
		t.Fatalf("ModelConfig: %v", err)
	}
	if mc.Descriptor.M1() != 100 || mc.Descriptor.OutDim() != 400 {
		t.Errorf("descriptor dims: M1=%d OutDim=%d", mc.Descriptor.M1(), mc.Descriptor.OutDim())
	}
	if mc.FittingActivation.Name() != "softplus" {
		t.Errorf("fitting activation %q", mc.FittingActivation.Name())
	}
	tc := in.TrainConfig(6)
	if tc.Steps != 40000 || tc.Workers != 6 || tc.ScaleByWorker != "none" {
		t.Errorf("train config wrong: %+v", tc)
	}
	if tc.Prefactors.StartPrefF != 1000 {
		t.Errorf("prefactors wrong: %+v", tc.Prefactors)
	}
}

func TestInputValidateRejects(t *testing.T) {
	mutate := []func(*Input){
		func(in *Input) { in.Model.Descriptor.RCut = 0 },
		func(in *Input) { in.Model.Descriptor.RCutSmth = 99 },
		func(in *Input) { in.Model.Descriptor.ActivationFunction = "swish" },
		func(in *Input) { in.Model.FittingNet.ActivationFunction = "gelu" },
		func(in *Input) { in.LearningRate.StartLR = -1 },
		func(in *Input) { in.LearningRate.StopLR = 1 },
		func(in *Input) { in.LearningRate.ScaleByWorker = "quadratic" },
		func(in *Input) { in.Training.NumbSteps = 0 },
		func(in *Input) { in.Model.TypeMap = nil },
	}
	for i, mut := range mutate {
		in, err := ParseInput(strings.NewReader(sampleInput))
		if err != nil {
			t.Fatal(err)
		}
		mut(in)
		if err := in.Validate(); err == nil {
			t.Errorf("mutation %d accepted", i)
		}
	}
}

func TestEvalErrorsEmptyDataset(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	m, _ := NewModel(rng, tinyModelConfig())
	empty := &dataset.Dataset{Types: []int{0}}
	e, f := EvalErrors(m, empty, 0)
	if e != 0 || f != 0 {
		t.Errorf("EvalErrors(empty) = %v, %v", e, f)
	}
}

func TestModelConfigValidate(t *testing.T) {
	good := tinyModelConfig()
	if err := good.Validate(); err != nil {
		t.Errorf("good config rejected: %v", err)
	}
	c := tinyModelConfig()
	c.FittingSizes = nil
	if err := c.Validate(); err == nil {
		t.Error("empty fitting sizes accepted")
	}
	c = tinyModelConfig()
	c.FittingSizes = []int{10, -1}
	if err := c.Validate(); err == nil {
		t.Error("negative fitting size accepted")
	}
	c = tinyModelConfig()
	c.NumSpecies = 2 // mismatch with descriptor's 3
	if err := c.Validate(); err == nil {
		t.Error("species mismatch accepted")
	}
	c = tinyModelConfig()
	c.FittingActivation = nil
	if err := c.Validate(); err == nil {
		t.Error("nil activation accepted")
	}
}
