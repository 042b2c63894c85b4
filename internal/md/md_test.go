package md

import (
	"math"
	"math/rand"
	"testing"
)

// skipTrajectoryUnderRace skips a test that integrates a trajectory of
// the 160-atom paper cell when the race detector is on.  The package
// starts no goroutines, so -race can find nothing in it, and those
// trajectories are nearly all of its race-build time; plain go test
// still runs them.
func skipTrajectoryUnderRace(t *testing.T) {
	t.Helper()
	if raceEnabled {
		t.Skip("trajectory test: internal/md runs no goroutines, nothing for -race to check")
	}
}

func smallSystem(t *testing.T, seed int64) (*System, *BMH) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	// A small neutral mixture: 4 Al, 2 K, 14 Cl = 20 atoms.
	var sp []Species
	for i := 0; i < 4; i++ {
		sp = append(sp, Al)
	}
	for i := 0; i < 2; i++ {
		sp = append(sp, K)
	}
	for i := 0; i < 14; i++ {
		sp = append(sp, Cl)
	}
	sys := NewSystem(rng, sp, 9.0, 498)
	pot := NewPaperBMH(4.0)
	if err := pot.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	return sys, pot
}

func TestPaperCompositionNeutralAnd160(t *testing.T) {
	sp := PaperComposition()
	if len(sp) != 160 {
		t.Fatalf("composition has %d atoms, want 160", len(sp))
	}
	q := 0.0
	counts := map[Species]int{}
	for _, s := range sp {
		q += s.Charge()
		counts[s]++
	}
	if math.Abs(q) > 1e-9 {
		t.Errorf("net charge = %v, want 0", q)
	}
	if counts[Al] != 32 || counts[K] != 16 || counts[Cl] != 112 {
		t.Errorf("counts = %v, want Al:32 K:16 Cl:112", counts)
	}
}

func TestSpeciesProperties(t *testing.T) {
	if Al.String() != "Al" || K.String() != "K" || Cl.String() != "Cl" {
		t.Error("species names wrong")
	}
	if Al.Mass() <= 0 || K.Mass() <= 0 || Cl.Mass() <= 0 {
		t.Error("non-positive mass")
	}
	if Al.Charge() <= 0 || K.Charge() <= 0 || Cl.Charge() >= 0 {
		t.Error("charge signs wrong")
	}
}

func TestMinimumImage(t *testing.T) {
	sys := &System{Box: 10}
	d := sys.Wrap(Vec3{9, -9, 4})
	want := Vec3{-1, 1, 4}
	for k := 0; k < 3; k++ {
		if math.Abs(d[k]-want[k]) > 1e-12 {
			t.Errorf("Wrap[%d] = %v, want %v", k, d[k], want[k])
		}
	}
}

func TestInitialTemperature(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	sys := NewSystem(rng, PaperComposition(), 17.84, 498)
	T := sys.Temperature()
	if math.Abs(T-498) > 120 {
		t.Errorf("initial temperature %v K, want ≈498", T)
	}
	// Center-of-mass momentum must be (near) zero.
	var p Vec3
	for i, v := range sys.Vel {
		p = p.Add(v.Scale(sys.Species[i].Mass()))
	}
	if p.Norm() > 1e-9 {
		t.Errorf("net momentum %v, want 0", p.Norm())
	}
}

func TestForcesMatchFiniteDifference(t *testing.T) {
	sys, pot := smallSystem(t, 4)
	pot.Compute(sys)
	const h = 1e-6
	pos := make([]Vec3, sys.N())
	copy(pos, sys.Pos)
	for i := 0; i < sys.N(); i += 3 { // sample atoms
		for k := 0; k < 3; k++ {
			pos[i][k] += h
			ep := pot.PotentialEnergyAt(sys, pos)
			pos[i][k] -= 2 * h
			em := pot.PotentialEnergyAt(sys, pos)
			pos[i][k] += h
			fd := -(ep - em) / (2 * h)
			if math.Abs(fd-sys.Frc[i][k]) > 1e-4*(1+math.Abs(fd)) {
				t.Errorf("force[%d][%d] = %v, finite diff %v", i, k, sys.Frc[i][k], fd)
			}
		}
	}
}

func TestNewtonThirdLaw(t *testing.T) {
	sys, pot := smallSystem(t, 5)
	pot.Compute(sys)
	var sum Vec3
	for _, f := range sys.Frc {
		sum = sum.Add(f)
	}
	if sum.Norm() > 1e-9 {
		t.Errorf("net force %v, want 0 (Newton's third law)", sum.Norm())
	}
}

func TestCellListMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	sys := NewSystem(rng, PaperComposition(), 17.84, 498)
	pot := NewPaperBMH(5.0) // 17.84/5 = 3 cells: cell list active

	pot.SetBruteForce(true)
	pot.Compute(sys)
	eN2 := sys.PotEng
	fN2 := make([]Vec3, sys.N())
	copy(fN2, sys.Frc)

	pot.SetBruteForce(false)
	pot.Compute(sys)
	if math.Abs(sys.PotEng-eN2) > 1e-8*(1+math.Abs(eN2)) {
		t.Errorf("cell-list energy %v != brute-force %v", sys.PotEng, eN2)
	}
	for i := range fN2 {
		if sys.Frc[i].Sub(fN2[i]).Norm() > 1e-8 {
			t.Errorf("cell-list force[%d] %v != brute-force %v", i, sys.Frc[i], fN2[i])
		}
	}
}

func TestShiftedForceContinuousAtCutoff(t *testing.T) {
	pot := NewPaperBMH(6.0)
	u, dudr := pot.PairEnergyForce(K, Cl, 6.0-1e-9)
	// BMH exp and dispersion are tiny at 6 Å but not shifted; the Coulomb
	// part must vanish.  Allow the residual short-range tail.
	uC := CoulombK * K.Charge() * Cl.Charge() * (1/5.999999999 - 1/6.0 + (5.999999999-6.0)/36.0)
	_ = uC
	if math.Abs(u) > 0.02 {
		t.Errorf("pair energy at cutoff = %v, want ≈0 (continuous)", u)
	}
	if math.Abs(dudr) > 0.02 {
		t.Errorf("pair force at cutoff = %v, want ≈0 (continuous)", dudr)
	}
}

func TestNVEEnergyConservation(t *testing.T) {
	skipTrajectoryUnderRace(t)
	rng := rand.New(rand.NewSource(7))
	sys := NewSystem(rng, PaperComposition(), 17.84, 300)
	pot := NewPaperBMH(5.0)
	it := NewIntegrator(pot, nil, 0.5)

	// Equilibrate briefly with a thermostat to remove lattice strain.
	eq := NewIntegrator(pot, Berendsen{T: 300, Tau: 50}, 0.5)
	eq.Run(sys, 200, 0, nil)

	pot.Compute(sys)
	e0 := TotalEnergy(sys)
	var maxDrift float64
	it.Run(sys, 400, 50, func(step int) {
		drift := math.Abs(TotalEnergy(sys) - e0)
		if drift > maxDrift {
			maxDrift = drift
		}
	})
	// Energy drift should be a tiny fraction of the total energy scale.
	scale := math.Abs(e0)
	if scale < 1 {
		scale = 1
	}
	if maxDrift/scale > 0.02 {
		t.Errorf("NVE energy drift %v (%.2f%% of |E0|=%v)", maxDrift, 100*maxDrift/scale, e0)
	}
}

func TestBerendsenDrivesTemperature(t *testing.T) {
	skipTrajectoryUnderRace(t)
	rng := rand.New(rand.NewSource(8))
	sys := NewSystem(rng, PaperComposition(), 17.84, 100)
	pot := NewPaperBMH(5.0)
	it := NewIntegrator(pot, Berendsen{T: 498, Tau: 10}, 0.5)
	it.Run(sys, 2000, 0, nil)
	T := sys.Temperature()
	if math.Abs(T-498) > 100 {
		t.Errorf("temperature after Berendsen run = %v, want ≈498", T)
	}
}

func TestLangevinDrivesTemperature(t *testing.T) {
	skipTrajectoryUnderRace(t)
	rng := rand.New(rand.NewSource(9))
	sys := NewSystem(rng, PaperComposition(), 17.84, 100)
	pot := NewPaperBMH(5.0)
	it := NewIntegrator(pot, Langevin{T: 498, Gamma: 0.05, Rng: rng}, 0.5)
	it.Run(sys, 800, 0, nil)
	T := sys.Temperature()
	if math.Abs(T-498) > 150 {
		t.Errorf("temperature after Langevin run = %v, want ≈498", T)
	}
}

func TestPositionsStayWrapped(t *testing.T) {
	skipTrajectoryUnderRace(t)
	rng := rand.New(rand.NewSource(10))
	sys := NewSystem(rng, PaperComposition(), 17.84, 498)
	pot := NewPaperBMH(5.0)
	it := NewIntegrator(pot, Berendsen{T: 498, Tau: 50}, 0.5)
	it.Run(sys, 100, 0, nil)
	for i, p := range sys.Pos {
		for k := 0; k < 3; k++ {
			if p[k] < 0 || p[k] >= sys.Box {
				t.Fatalf("atom %d coordinate %d out of box: %v", i, k, p[k])
			}
		}
	}
}

func TestRDFHasExcludedCore(t *testing.T) {
	skipTrajectoryUnderRace(t)
	rng := rand.New(rand.NewSource(11))
	sys := NewSystem(rng, PaperComposition(), 17.84, 498)
	pot := NewPaperBMH(5.0)
	it := NewIntegrator(pot, Berendsen{T: 498, Tau: 25}, 0.5)
	it.Run(sys, 300, 0, nil)

	rdf := NewRDF(Al, Cl, 6.0, 60)
	it.Run(sys, 200, 20, func(step int) { rdf.Accumulate(sys) })
	centers, g := rdf.Result(sys)
	// No Al-Cl pairs inside the hard core (< 1.2 Å).
	for k, c := range centers {
		if c < 1.2 && g[k] > 0 {
			t.Errorf("g(%v Å) = %v inside excluded core", c, g[k])
		}
	}
	// Some structure must exist beyond the core.
	var peak float64
	for _, v := range g {
		if v > peak {
			peak = v
		}
	}
	if peak < 0.5 {
		t.Errorf("RDF peak %v, want > 0.5 (liquid structure)", peak)
	}
}

func TestVec3Ops(t *testing.T) {
	a := Vec3{1, 2, 3}
	b := Vec3{4, 5, 6}
	if got := a.Add(b); got != (Vec3{5, 7, 9}) {
		t.Errorf("Add = %v", got)
	}
	if got := a.Sub(b); got != (Vec3{-3, -3, -3}) {
		t.Errorf("Sub = %v", got)
	}
	if got := a.Dot(b); got != 32 {
		t.Errorf("Dot = %v", got)
	}
	if got := a.Scale(2); got != (Vec3{2, 4, 6}) {
		t.Errorf("Scale = %v", got)
	}
	if math.Abs(Vec3{3, 4, 0}.Norm()-5) > 1e-12 {
		t.Error("Norm wrong")
	}
}

func TestKineticEnergyMatchesTemperatureDef(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	sys := NewSystem(rng, PaperComposition(), 17.84, 400)
	ke := sys.KineticEnergy()
	T := sys.Temperature()
	dof := float64(3*sys.N() - 3)
	if math.Abs(ke-0.5*dof*BoltzmannEV*T) > 1e-9 {
		t.Error("KineticEnergy and Temperature definitions inconsistent")
	}
}
