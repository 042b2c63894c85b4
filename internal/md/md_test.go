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

// generatorFrames integrates the paper cell the way dataset.Generate does
// (498 K, Langevin γ = 0.02 /fs, dt = 0.5 fs, cutoff 5 Å): equil steps are
// discarded, then a copy of the wrapped positions is taken every `every`
// steps, n times.
func generatorFrames(seed int64, equil, every, n int) (*System, [][]Vec3) {
	rng := rand.New(rand.NewSource(seed))
	sys := NewSystem(rng, PaperComposition(), 17.84, 498)
	it := NewIntegrator(NewPaperBMH(5.0), Langevin{T: 498, Gamma: 0.02, Rng: rng}, 0.5)
	it.Run(sys, equil, 0, nil)
	frames := [][]Vec3{append([]Vec3(nil), sys.Pos...)}
	it.Run(sys, every*n, every, func(int) {
		frames = append(frames, append([]Vec3(nil), sys.Pos...))
	})
	return sys, frames
}

// TestMSDGrowsInLiquid checks that the generator's 498 K melt diffuses:
// the mean-square displacement of the unwrapped positions keeps growing
// through the second half of a 300 fs window.  A 300 fs window cannot
// tell a melt from a slowly relaxing glass; it catches atoms that stop
// moving and unwrapping that loses track of boundary crossings.
func TestMSDGrowsInLiquid(t *testing.T) {
	skipTrajectoryUnderRace(t)
	sys, frames := generatorFrames(1, 300, 20, 30)
	unwrap := append([]Vec3(nil), frames[0]...)
	msd := make([]float64, len(frames))
	for f := 1; f < len(frames); f++ {
		sum := 0.0
		for i, p := range frames[f] {
			// Minimum-image continuity: atoms move far less than half a
			// box in 10 fs.
			unwrap[i] = unwrap[i].Add(sys.Wrap(p.Sub(frames[f-1][i])))
			d := unwrap[i].Sub(frames[0][i])
			sum += d.Dot(d)
		}
		msd[f] = sum / float64(sys.N())
	}
	mid, last := msd[len(msd)/2], msd[len(msd)-1]
	if mid <= 0 || last < 1.2*mid {
		t.Errorf("MSD %v Å² at 150 fs -> %v Å² at 300 fs, want growth of at least 20%% (liquid)", mid, last)
	}
}

// TestRDFHasExcludedCore checks the generator's Al–Cl structure: g(r) is
// zero inside the 1.2 Å hard core, and the first coordination shell
// (< 3 Å) is populated.
func TestRDFHasExcludedCore(t *testing.T) {
	skipTrajectoryUnderRace(t)
	sys, frames := generatorFrames(11, 300, 20, 10)
	shell := 0
	for _, pos := range frames[1:] {
		sys.Pos = pos
		for i, si := range sys.Species {
			for j, sj := range sys.Species {
				if si != Al || sj != Cl {
					continue
				}
				r := sys.Displacement(i, j).Norm()
				if r < 1.2 {
					t.Fatalf("Al %d – Cl %d at %v Å, inside the excluded core", i, j, r)
				}
				if r < 3 {
					shell++
				}
			}
		}
	}
	if shell == 0 {
		t.Error("no Al–Cl pair within 3 Å: first coordination shell empty")
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
