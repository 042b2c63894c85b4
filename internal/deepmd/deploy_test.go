package deepmd

import (
	"bytes"
	"context"
	"encoding/gob"
	"math"
	"math/rand"
	"path/filepath"
	"testing"

	"repro/internal/md"
	"repro/internal/neighbor"
)

func TestModelSaveLoadRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	m, err := NewModel(rng, tinyModelConfig())
	if err != nil {
		t.Fatal(err)
	}
	m.Bias = []float64{-1.5, -2.0, -0.5}
	d := tinyData(t, 1)
	fr := &d.Frames[0]
	eWant, fWant := m.EnergyForces(fr.Coord, d.Types, fr.Box)

	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatalf("Save: %v", err)
	}
	got, err := LoadModel(&buf)
	if err != nil {
		t.Fatalf("LoadModel: %v", err)
	}
	eGot, fGot := got.EnergyForces(fr.Coord, d.Types, fr.Box)
	if eGot != eWant {
		t.Errorf("energy after round trip: %v != %v", eGot, eWant)
	}
	for k := range fWant {
		if fGot[k] != fWant[k] {
			t.Fatalf("force[%d] after round trip: %v != %v", k, fGot[k], fWant[k])
		}
	}
	if got.Cfg.FittingActivation.Name() != m.Cfg.FittingActivation.Name() {
		t.Error("fitting activation lost")
	}
}

func TestModelSaveLoadFile(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	m, _ := NewModel(rng, tinyModelConfig())
	path := filepath.Join(t.TempDir(), "frozen.model")
	if err := m.SaveFile(path); err != nil {
		t.Fatalf("SaveFile: %v", err)
	}
	got, err := LoadModelFile(path)
	if err != nil {
		t.Fatalf("LoadModelFile: %v", err)
	}
	if got.ParamCount() != m.ParamCount() {
		t.Errorf("param count %d != %d", got.ParamCount(), m.ParamCount())
	}
}

func TestLoadModelRejectsGarbage(t *testing.T) {
	if _, err := LoadModel(bytes.NewReader([]byte("not a model"))); err == nil {
		t.Error("garbage accepted")
	}
	// A valid gob of the wrong format string.
	var buf bytes.Buffer
	m, _ := NewModel(rand.New(rand.NewSource(3)), tinyModelConfig())
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	// Corrupt the format marker bytes.
	idx := bytes.Index(raw, []byte(modelFormat))
	if idx < 0 {
		t.Fatal("format marker not found in encoding")
	}
	raw[idx] = 'X'
	if _, err := LoadModel(bytes.NewReader(raw)); err == nil {
		t.Error("wrong-format model accepted")
	}
}

// TestLoadModelRejectsMismatchedTensors hand-builds version-1 files whose
// tensors do not fit their own configuration and requires LoadModel to
// refuse each with an error, never a panic.
func TestLoadModelRejectsMismatchedTensors(t *testing.T) {
	m, _ := NewModel(rand.New(rand.NewSource(3)), tinyModelConfig())
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	var good savedModel
	if err := gob.NewDecoder(&buf).Decode(&good); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name   string
		mutate func(sm *savedModel)
	}{
		{"one tensor missing", func(sm *savedModel) { sm.Weights = sm.Weights[:len(sm.Weights)-1] }},
		{"one tensor extra", func(sm *savedModel) { sm.Weights = append(sm.Weights, []float64{1}) }},
		{"no tensors", func(sm *savedModel) { sm.Weights = nil }},
		{"weight tensor short", func(sm *savedModel) { sm.Weights[0] = sm.Weights[0][:len(sm.Weights[0])-1] }},
		{"bias tensor long", func(sm *savedModel) { sm.Weights[1] = append(sm.Weights[1], 0) }},
		{"last tensor empty", func(sm *savedModel) { sm.Weights[len(sm.Weights)-1] = nil }},
		{"weights and bias swapped", func(sm *savedModel) { sm.Weights[2], sm.Weights[3] = sm.Weights[3], sm.Weights[2] }},
		{"fitting sizes wider than the tensors", func(sm *savedModel) { sm.FitSizes = []int{11} }},
		{"embedding sizes deeper than the tensors", func(sm *savedModel) { sm.EmbSizes = []int{4, 4, 8} }},
		{"one species fewer than the tensors", func(sm *savedModel) { sm.NSpecies = 2 }},
		{"bias count wrong", func(sm *savedModel) { sm.Bias = sm.Bias[:1] }},
		{"zero fitting size", func(sm *savedModel) { sm.FitSizes = []int{0} }},
		{"negative embedding size", func(sm *savedModel) { sm.EmbSizes = []int{-4, 8} }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sm := good
			sm.EmbSizes = append([]int(nil), good.EmbSizes...)
			sm.FitSizes = append([]int(nil), good.FitSizes...)
			sm.Bias = append([]float64(nil), good.Bias...)
			sm.Weights = append([][]float64(nil), good.Weights...)
			tc.mutate(&sm)
			var file bytes.Buffer
			if err := gob.NewEncoder(&file).Encode(&sm); err != nil {
				t.Fatal(err)
			}
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("LoadModel panicked: %v", r)
				}
			}()
			if _, err := LoadModel(&file); err == nil {
				t.Fatal("LoadModel accepted the file")
			}
		})
	}
	// The unmutated copy still loads: the cases fail for their mutation.
	var file bytes.Buffer
	if err := gob.NewEncoder(&file).Encode(&good); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadModel(&file); err != nil {
		t.Fatalf("unmutated file: %v", err)
	}
}

func TestMDPotentialMatchesEnergyForces(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	m, _ := NewModel(rng, tinyModelConfig())
	species := []md.Species{md.Al, md.Cl, md.Cl, md.Cl, md.K, md.Cl}
	sys := md.NewSystem(rng, species, 7.0, 498)

	pot := NewMDPotential(m)
	if pot.Cutoff() != m.Cfg.Descriptor.RCut {
		t.Errorf("Cutoff = %v", pot.Cutoff())
	}
	pot.Compute(sys)

	coord := make([]float64, 3*sys.N())
	types := make([]int, sys.N())
	for i := 0; i < sys.N(); i++ {
		types[i] = int(sys.Species[i])
		for k := 0; k < 3; k++ {
			coord[3*i+k] = sys.Pos[i][k]
		}
	}
	eWant, fWant := m.EnergyForces(coord, types, sys.Box)
	if math.Abs(sys.PotEng-eWant) > 1e-12 {
		t.Errorf("PotEng %v != %v", sys.PotEng, eWant)
	}
	for i := 0; i < sys.N(); i++ {
		for k := 0; k < 3; k++ {
			if sys.Frc[i][k] != fWant[3*i+k] {
				t.Fatalf("force mismatch at %d,%d", i, k)
			}
		}
	}
}

// TestMDPotentialStepAllocs holds an MD step's force call at Threads 1
// to the allocations of the EnergyForcesNL it wraps: Compute keeps its
// neighbour list and force buffer across steps.
func TestMDPotentialStepAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector makes sync.Pool drop items; pooled paths allocate by design")
	}
	rng := rand.New(rand.NewSource(7))
	m, _ := NewModel(rng, tinyModelConfig())
	m.SetThreads(1)
	species := []md.Species{md.Al, md.Cl, md.Cl, md.Cl, md.K, md.Cl}
	sys := md.NewSystem(rng, species, 7.0, 498)
	pot := NewMDPotential(m)
	pot.Compute(sys)
	got := testing.AllocsPerRun(20, func() { pot.Compute(sys) })

	coord, forces := append([]float64(nil), pot.coord...), make([]float64, 3*sys.N())
	var nl neighbor.List
	nl.Build(coord, sys.Box, pot.Cutoff(), 0)
	want := testing.AllocsPerRun(20, func() { m.EnergyForcesNL(&nl, coord, pot.types, sys.Box, forces) })
	if got != want {
		t.Errorf("Compute: %v allocs/step, EnergyForcesNL alone %v", got, want)
	}
}

func TestMDWithNNPotentialConservesEnergy(t *testing.T) {
	// The learned potential is smooth and its forces are exact gradients,
	// so NVE dynamics under it must conserve energy — this is the whole
	// point of the DeepPot-SE smooth edition (§1) and validates the
	// descriptor/fitting gradients in a dynamical setting.
	rng := rand.New(rand.NewSource(5))
	m, _ := NewModel(rng, tinyModelConfig())
	species := []md.Species{md.Al, md.Cl, md.Cl, md.Cl, md.K, md.Cl}
	sys := md.NewSystem(rng, species, 7.0, 150)
	pot := NewMDPotential(m)

	it := md.NewIntegrator(pot, nil, 0.25)
	pot.Compute(sys)
	e0 := md.TotalEnergy(sys)
	var maxDrift float64
	it.Run(sys, 200, 20, func(step int) {
		d := math.Abs(md.TotalEnergy(sys) - e0)
		if d > maxDrift {
			maxDrift = d
		}
	})
	scale := math.Abs(e0) + sys.KineticEnergy() + 1
	if maxDrift/scale > 0.05 {
		t.Errorf("NN-potential NVE drift %v (scale %v)", maxDrift, scale)
	}
}

func TestMDPotentialNewtonThirdLaw(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	m, _ := NewModel(rng, tinyModelConfig())
	species := []md.Species{md.Al, md.Cl, md.Cl, md.Cl, md.K, md.Cl}
	sys := md.NewSystem(rng, species, 7.0, 300)
	pot := NewMDPotential(m)
	pot.Compute(sys)
	var sum md.Vec3
	for _, f := range sys.Frc {
		sum = sum.Add(f)
	}
	if sum.Norm() > 1e-8 {
		t.Errorf("net force %v under NN potential (translation invariance broken)", sum.Norm())
	}
}

func TestTrainingResumesFromFrozenModel(t *testing.T) {
	// The paper's two-hour limit kills long trainings; DeePMD checkpoints
	// and restarts.  Freeze after a first leg, reload in a "new process",
	// continue training: losses must keep improving from where they were
	// (Adam moments are not persisted, so exact-match with an unbroken run
	// is not expected).
	rng := rand.New(rand.NewSource(40))
	m, _ := NewModel(rng, tinyModelConfig())
	d := tinyData(t, 16)
	d.Shuffle(rand.New(rand.NewSource(41)))
	train, val := d.Split(0.25)

	cfg := TrainConfig{
		Steps: 120, BatchSize: 2, StartLR: 0.005, StopLR: 1e-4,
		ScaleByWorker: "none", Workers: 1, DispFreq: 60, Seed: 42,
	}
	res1, err := Train(context.Background(), m, train, val, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	resumed, err := LoadModel(&buf)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Seed = 43
	cfg.StartLR = 0.002 // continue near where the schedule left off
	res2, err := Train(context.Background(), resumed, train, val, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res2.FinalForceRMSE > res1.FinalForceRMSE*1.3 {
		t.Errorf("resumed training regressed: %v -> %v", res1.FinalForceRMSE, res2.FinalForceRMSE)
	}
}
