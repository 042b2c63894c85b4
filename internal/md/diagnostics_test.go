package md

import (
	"math"
	"math/rand"
	"testing"
)

func TestMSDGrowsInLiquid(t *testing.T) {
	skipTrajectoryUnderRace(t)
	rng := rand.New(rand.NewSource(1))
	sys := NewSystem(rng, PaperComposition(), 17.84, 900) // hot melt diffuses fast
	pot := NewPaperBMH(5.0)
	it := NewIntegrator(pot, Langevin{T: 900, Gamma: 0.01, Rng: rng}, 0.5)
	it.Run(sys, 500, 0, nil) // equilibrate

	msd := NewMSD(-1)
	msd.Start(sys)
	step := 0
	it.Run(sys, 1000, 50, func(s int) {
		step = s
		msd.Sample(sys, float64(s)*0.5)
	})
	_ = step
	times, values := msd.Series()
	if len(times) != 20 {
		t.Fatalf("got %d samples, want 20", len(times))
	}
	if values[len(values)-1] <= values[0] {
		t.Errorf("MSD did not grow: %v -> %v", values[0], values[len(values)-1])
	}
	d, err := msd.DiffusionCoefficient()
	if err != nil {
		t.Fatalf("DiffusionCoefficient: %v", err)
	}
	if d <= 0 {
		t.Errorf("diffusion coefficient %v, want positive (liquid)", d)
	}
}

func TestMSDZeroWithoutMotion(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	sys := NewSystem(rng, []Species{K, Cl}, 8, 300)
	msd := NewMSD(-1)
	msd.Start(sys)
	msd.Sample(sys, 1)
	msd.Sample(sys, 2)
	_, values := msd.Series()
	for _, v := range values {
		if v != 0 {
			t.Errorf("MSD %v for frozen system, want 0", v)
		}
	}
}

func TestMSDPerSpeciesSelection(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	sys := NewSystem(rng, []Species{Al, K, Cl, Cl}, 8, 300)
	msd := NewMSD(Cl)
	msd.Start(sys)
	if len(msd.selected) != 2 {
		t.Errorf("selected %d atoms, want 2 Cl", len(msd.selected))
	}
}

func TestMSDUnwrapsAcrossBoundary(t *testing.T) {
	// An atom crossing the periodic boundary must accumulate displacement
	// rather than jump backwards.
	sys := &System{Box: 10, Species: []Species{K},
		Pos: []Vec3{{9.8, 5, 5}}, Vel: make([]Vec3, 1), Frc: make([]Vec3, 1)}
	msd := NewMSD(-1)
	msd.Start(sys)
	sys.Pos[0] = Vec3{0.2, 5, 5} // crossed the boundary: moved +0.4, not -9.6
	msd.Sample(sys, 1)
	_, values := msd.Series()
	if math.Abs(values[0]-0.16) > 1e-9 {
		t.Errorf("MSD after boundary crossing = %v, want 0.16", values[0])
	}
}

func TestDiffusionNeedsSamples(t *testing.T) {
	msd := NewMSD(-1)
	if _, err := msd.DiffusionCoefficient(); err == nil {
		t.Error("empty MSD produced a diffusion coefficient")
	}
}

func TestVACFStartsAtOneAndDecays(t *testing.T) {
	skipTrajectoryUnderRace(t)
	rng := rand.New(rand.NewSource(4))
	sys := NewSystem(rng, PaperComposition(), 17.84, 498)
	pot := NewPaperBMH(5.0)
	it := NewIntegrator(pot, nil, 0.5) // NVE so velocities decorrelate naturally
	pot.Compute(sys)

	var vacf VACF
	vacf.Start(sys)
	vacf.Sample(sys, 0)
	it.Run(sys, 400, 20, func(s int) { vacf.Sample(sys, float64(s)*0.5) })

	_, c := vacf.Series()
	if math.Abs(c[0]-1) > 1e-12 {
		t.Errorf("C(0) = %v, want 1", c[0])
	}
	// In a dense liquid the VACF decays well below 1 within ~200 fs.
	if last := c[len(c)-1]; last > 0.5 {
		t.Errorf("C(t_end) = %v, want decayed", last)
	}
	if dt := vacf.DecayTime(); math.IsNaN(dt) || dt <= 0 {
		t.Errorf("DecayTime = %v, want positive", dt)
	}
}

func TestLsSlopeKnown(t *testing.T) {
	s, err := lsSlope([]float64{0, 1, 2, 3}, []float64{1, 3, 5, 7})
	if err != nil || math.Abs(s-2) > 1e-12 {
		t.Errorf("slope = %v, %v; want 2", s, err)
	}
	if _, err := lsSlope([]float64{1, 1}, []float64{2, 3}); err == nil {
		t.Error("degenerate x accepted")
	}
}

func TestNoseHooverDrivesTemperature(t *testing.T) {
	skipTrajectoryUnderRace(t)
	rng := rand.New(rand.NewSource(20))
	sys := NewSystem(rng, PaperComposition(), 17.84, 200)
	pot := NewPaperBMH(5.0)
	nh := NewNoseHoover(498, 50, sys.N())
	it := NewIntegrator(pot, nh, 0.5)
	it.Run(sys, 3000, 0, nil)
	T := sys.Temperature()
	if math.Abs(T-498) > 120 {
		t.Errorf("Nose-Hoover temperature %v, want ≈498", T)
	}
	if nh.Xi() == 0 {
		t.Error("thermostat friction never moved")
	}
}

func TestNoseHooverNoDOF(t *testing.T) {
	sys := &System{Box: 5, Species: []Species{K}, Pos: make([]Vec3, 1), Vel: make([]Vec3, 1), Frc: make([]Vec3, 1)}
	nh := NewNoseHoover(300, 50, 1)
	nh.Apply(sys, 0.5) // must not panic or NaN with zero DOF
	if math.IsNaN(nh.Xi()) {
		t.Error("xi became NaN")
	}
}

func TestPressureIdealGasLimit(t *testing.T) {
	// Without interactions the virial is zero and P = N·k_B·T_kin/V
	// (T_kin from the actual kinetic energy, COM removed).
	rng := rand.New(rand.NewSource(30))
	sys := NewSystem(rng, PaperComposition(), 17.84, 498)
	sys.Virial = 0
	vol := sys.Box * sys.Box * sys.Box
	want := 2 * sys.KineticEnergy() / (3 * vol)
	if got := Pressure(sys); math.Abs(got-want) > 1e-15 {
		t.Errorf("ideal-gas pressure %v, want %v", got, want)
	}
}

func TestPressureOfDenseMeltExceedsIdeal(t *testing.T) {
	skipTrajectoryUnderRace(t)
	rng := rand.New(rand.NewSource(31))
	sys := NewSystem(rng, PaperComposition(), 17.84, 498)
	pot := NewPaperBMH(5.0)
	it := NewIntegrator(pot, Berendsen{T: 498, Tau: 20}, 0.5)
	it.Run(sys, 500, 0, nil)
	pot.Compute(sys)
	vol := sys.Box * sys.Box * sys.Box
	ideal := 2 * sys.KineticEnergy() / (3 * vol)
	p := Pressure(sys)
	if p <= ideal {
		t.Errorf("dense melt pressure %v not above ideal %v (repulsion must dominate)", p, ideal)
	}
	if g := PressureGPa(sys); g <= 0 || math.IsNaN(g) {
		t.Errorf("PressureGPa = %v", g)
	}
}

func TestVirialMatchesVolumeDerivative(t *testing.T) {
	// W = -3V·dU/dV under uniform scaling: check against a finite
	// difference of the potential energy with scaled coordinates and box.
	rng := rand.New(rand.NewSource(32))
	sys := NewSystem(rng, PaperComposition(), 17.84, 300)
	pot := NewPaperBMH(5.0)
	pot.Compute(sys)
	w := sys.Virial

	energyAtScale := func(s float64) float64 {
		scaled := &System{Box: sys.Box * s, Species: sys.Species,
			Pos: make([]Vec3, sys.N()), Vel: make([]Vec3, sys.N()), Frc: make([]Vec3, sys.N())}
		for i, p := range sys.Pos {
			scaled.Pos[i] = p.Scale(s)
		}
		// Same reduced configuration, scaled cutoff keeps the neighbour
		// list identical so only pair distances change.
		p2 := NewPaperBMH(5.0 * s)
		// Rebuild shifted-force constants for the scaled cutoff — they
		// differ, so instead compare with the same potential but only for
		// small scalings where cutoff crossings are negligible.
		_ = p2
		pot.Compute(scaled)
		return scaled.PotEng
	}
	const h = 1e-5
	up := energyAtScale(1 + h)
	dn := energyAtScale(1 - h)
	dUdlnV := (up - dn) / (2 * h) / 3 // dU/d(ln s) / 3 = V·dU/dV
	if math.Abs(-3*dUdlnV-w) > 0.05*(1+math.Abs(w)) {
		t.Errorf("virial %v vs -3V·dU/dV %v", w, -3*dUdlnV)
	}
}
