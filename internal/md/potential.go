package md

import (
	"fmt"
	"math"

	"repro/internal/neighbor"
)

// Potential evaluates the potential energy and forces of a system.
type Potential interface {
	// Compute fills sys.Frc and sys.PotEng.
	Compute(sys *System)
	// Cutoff returns the interaction cutoff in Å.
	Cutoff() float64
}

// BMHParams holds Born–Mayer–Huggins pair parameters for one species pair:
// U(r) = A·exp((σ − r)/ρ) − C/r⁶ plus shifted-force Coulomb.
type BMHParams struct {
	A     float64 // repulsion strength, eV
	Rho   float64 // repulsion softness, Å
	Sigma float64 // contact distance, Å
	C     float64 // dispersion coefficient, eV·Å⁶
}

// BMH is a rigid-ion Born–Mayer–Huggins potential with damped shifted-
// force Coulomb electrostatics (Fennell & Gezelter style), which conserves
// energy without an Ewald sum — adequate for generating training
// configurations, the potential's only job here.
type BMH struct {
	Pairs  [NumSpecies][NumSpecies]BMHParams
	RCut   float64
	useN2  bool // force O(N²) pair loop instead of cell lists (ablation)
	sfE    float64
	sfF    float64
	charge [NumSpecies]float64
}

// ionicRadii are effective ionic radii in Å used to build contact
// distances; these are synthetic parameters in the Tosi–Fumi spirit, not a
// fit to any published salt model.
var ionicRadii = [NumSpecies]float64{
	Al: 0.68,
	K:  1.52,
	Cl: 1.67,
}

// NewPaperBMH builds the molten AlCl₃/KCl potential used to generate
// training data, with interaction cutoff rcut (Å).
func NewPaperBMH(rcut float64) *BMH {
	b := &BMH{RCut: rcut}
	const (
		aRep = 0.30 // eV, overall repulsion scale
		rho  = 0.33 // Å, Tosi–Fumi-like softness
	)
	for i := Species(0); i < NumSpecies; i++ {
		b.charge[i] = i.Charge()
		for j := Species(0); j < NumSpecies; j++ {
			sigma := ionicRadii[i] + ionicRadii[j]
			// Dispersion only between anions and between anion/cation
			// pairs; small, to keep the melt liquid-like but stable.
			c6 := 15.0 * math.Pow(sigma/3.3, 6)
			b.Pairs[i][j] = BMHParams{A: aRep, Rho: rho, Sigma: sigma, C: c6}
		}
	}
	// Shifted-force constants so both the Coulomb energy and force go to
	// zero continuously at the cutoff: U_sf(r) = k q q [1/r − 1/rc + (r −
	// rc)/rc²].
	b.sfE = 1 / rcut
	b.sfF = 1 / (rcut * rcut)
	return b
}

// Cutoff implements Potential.
func (b *BMH) Cutoff() float64 { return b.RCut }

// SetBruteForce toggles the O(N²) pair loop; cell lists are the default.
func (b *BMH) SetBruteForce(on bool) { b.useN2 = on }

// PairEnergyForce returns the pair energy and the magnitude dU/dr for
// species si, sj at separation r (r ≤ cutoff assumed).
func (b *BMH) PairEnergyForce(si, sj Species, r float64) (u, dudr float64) {
	p := b.Pairs[si][sj]
	exp := p.A * math.Exp((p.Sigma-r)/p.Rho)
	r2 := r * r
	r6 := r2 * r2 * r2
	qq := CoulombK * b.charge[si] * b.charge[sj]
	u = exp - p.C/r6 + qq*(1/r-b.sfE+(r-b.RCut)*b.sfF)
	dudr = -exp/p.Rho + 6*p.C/(r6*r) + qq*(-1/r2+b.sfF)
	return u, dudr
}

// Compute implements Potential, filling forces and potential energy.
func (b *BMH) Compute(sys *System) {
	n := sys.N()
	for i := range sys.Frc {
		sys.Frc[i] = Vec3{}
	}
	sys.PotEng = 0

	visit := func(i, j int) {
		d := sys.Displacement(i, j)
		r2 := d.Dot(d)
		if r2 >= b.RCut*b.RCut || r2 == 0 {
			return
		}
		r := math.Sqrt(r2)
		u, dudr := b.PairEnergyForce(sys.Species[i], sys.Species[j], r)
		sys.PotEng += u
		// F_i = -dU/dr · d(r)/d(pos_i); d points from i to j, so the force
		// on i along -d̂ for repulsive (positive dudr means U increasing
		// with r → attraction pulling i toward j).
		f := d.Scale(dudr / r)
		sys.Frc[i] = sys.Frc[i].Add(f)
		sys.Frc[j] = sys.Frc[j].Sub(f)
	}

	if b.useN2 || b.RCut*3 > sys.Box {
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				visit(i, j)
			}
		}
		return
	}
	forEachPairCellList(sys, b.RCut, visit)
}

// PotentialEnergyAt evaluates only the energy for an arbitrary position
// set (used by finite-difference force tests).
func (b *BMH) PotentialEnergyAt(sys *System, pos []Vec3) float64 {
	saved := sys.Pos
	sys.Pos = pos
	defer func() { sys.Pos = saved }()
	e := 0.0
	n := sys.N()
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			d := sys.Displacement(i, j)
			r2 := d.Dot(d)
			if r2 >= b.RCut*b.RCut || r2 == 0 {
				continue
			}
			u, _ := b.PairEnergyForce(sys.Species[i], sys.Species[j], math.Sqrt(r2))
			e += u
		}
	}
	return e
}

// forEachPairCellList enumerates unique pairs within rcut using a linked-
// cell decomposition, the standard O(N) neighbour search for short-ranged
// MD.
func forEachPairCellList(sys *System, rcut float64, visit func(i, j int)) {
	ncell := int(sys.Box / rcut)
	if ncell < 3 {
		// Cell list degenerates; caller should have used the N² path.
		n := sys.N()
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				visit(i, j)
			}
		}
		return
	}
	cellSize := sys.Box / float64(ncell)
	nc3 := ncell * ncell * ncell
	heads := make([]int, nc3)
	for i := range heads {
		heads[i] = -1
	}
	next := make([]int, sys.N())

	cellOf := func(p Vec3) int {
		cx := int(p[0]/cellSize) % ncell
		cy := int(p[1]/cellSize) % ncell
		cz := int(p[2]/cellSize) % ncell
		if cx < 0 {
			cx += ncell
		}
		if cy < 0 {
			cy += ncell
		}
		if cz < 0 {
			cz += ncell
		}
		return (cz*ncell+cy)*ncell + cx
	}
	// Positions may lie outside [0, Box); wrap per-coordinate for binning.
	for i := range sys.Pos {
		p := sys.Pos[i]
		for k := 0; k < 3; k++ {
			p[k] = neighbor.IntoBox(p[k], sys.Box)
		}
		c := cellOf(p)
		next[i] = heads[c]
		heads[c] = i
	}

	for cz := 0; cz < ncell; cz++ {
		for cy := 0; cy < ncell; cy++ {
			for cx := 0; cx < ncell; cx++ {
				c := (cz*ncell+cy)*ncell + cx
				for dz := -1; dz <= 1; dz++ {
					for dy := -1; dy <= 1; dy++ {
						for dx := -1; dx <= 1; dx++ {
							nx := (cx + dx + ncell) % ncell
							ny := (cy + dy + ncell) % ncell
							nz := (cz + dz + ncell) % ncell
							nb := (nz*ncell+ny)*ncell + nx
							if nb < c {
								continue // each cell pair once
							}
							for i := heads[c]; i >= 0; i = next[i] {
								start := heads[nb]
								if nb == c {
									start = next[i] // unique pairs within a cell
								}
								for j := start; j >= 0; j = next[j] {
									visit(i, j)
								}
							}
						}
					}
				}
			}
		}
	}
}

// Validate sanity-checks parameters.
func (b *BMH) Validate() error {
	if b.RCut <= 0 {
		return fmt.Errorf("md: cutoff %v must be positive", b.RCut)
	}
	for i := Species(0); i < NumSpecies; i++ {
		for j := Species(0); j < NumSpecies; j++ {
			p := b.Pairs[i][j]
			if p.Rho <= 0 || p.A < 0 {
				return fmt.Errorf("md: bad BMH parameters for %v-%v: %+v", i, j, p)
			}
		}
	}
	return nil
}
