// Package md is a classical molecular-dynamics engine for molten-salt
// systems.  It substitutes for the CP2K first-principles MD the paper used
// to generate DeePMD training data (§2.1.3): the trainer only needs atomic
// configurations labeled with consistent energies and forces from *some*
// reference potential, and a Born–Mayer–Huggins + damped shifted-force
// Coulomb potential provides exactly that at laptop cost.
//
// Units follow the paper: length in Å, energy in eV, force in eV/Å, mass
// in amu, time in fs, temperature in K.
package md

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/neighbor"
)

// Physical constants in the Å/eV/amu/fs unit system.
const (
	// CoulombK is e²/(4πε₀) in eV·Å.
	CoulombK = 14.399645
	// BoltzmannEV is k_B in eV/K.
	BoltzmannEV = 8.617333262e-5
	// massTimeFactor converts acceleration: a [Å/fs²] = F [eV/Å] / m [amu] × this.
	// 1 eV/(Å·amu) = 9.64853e-3 Å/fs².
	massTimeFactor = 9.64853e-3
)

// Species identifies an atom type in the molten-salt mixture.
type Species int

// The species of the paper's system: a molten aluminum-chloride /
// potassium-chloride mixture (66.7 % AlCl₃, 33.3 % KCl).
const (
	Al Species = iota
	K
	Cl
	NumSpecies
)

// String returns the element symbol.
func (s Species) String() string {
	switch s {
	case Al:
		return "Al"
	case K:
		return "K"
	case Cl:
		return "Cl"
	}
	return fmt.Sprintf("Species(%d)", int(s))
}

// Mass returns the atomic mass in amu.
func (s Species) Mass() float64 {
	switch s {
	case Al:
		return 26.9815
	case K:
		return 39.0983
	case Cl:
		return 35.4530
	}
	panic("md: unknown species")
}

// Charge returns the effective partial charge in units of e.  Formal
// charges (+3, +1, −1) are scaled by 0.7, a standard stabilization for
// rigid-ion molten-salt models.
func (s Species) Charge() float64 {
	const scale = 0.7
	switch s {
	case Al:
		return +3 * scale
	case K:
		return +1 * scale
	case Cl:
		return -1 * scale
	}
	panic("md: unknown species")
}

// Vec3 is a 3-vector.
type Vec3 [3]float64

// Add returns a + b.
func (a Vec3) Add(b Vec3) Vec3 { return Vec3{a[0] + b[0], a[1] + b[1], a[2] + b[2]} }

// Sub returns a - b.
func (a Vec3) Sub(b Vec3) Vec3 { return Vec3{a[0] - b[0], a[1] - b[1], a[2] - b[2]} }

// Scale returns s·a.
func (a Vec3) Scale(s float64) Vec3 { return Vec3{s * a[0], s * a[1], s * a[2]} }

// Dot returns a·b.
func (a Vec3) Dot(b Vec3) float64 { return a[0]*b[0] + a[1]*b[1] + a[2]*b[2] }

// Norm returns |a|.
func (a Vec3) Norm() float64 { return math.Sqrt(a.Dot(a)) }

// System is a periodic cubic simulation cell of atoms.
type System struct {
	Box     float64 // cubic box side length, Å
	Species []Species
	Pos     []Vec3 // positions, Å
	Vel     []Vec3 // velocities, Å/fs
	Frc     []Vec3 // forces, eV/Å (filled by Potential.Compute)
	PotEng  float64
}

// N returns the atom count.
func (s *System) N() int { return len(s.Species) }

// PaperComposition returns the species list of the paper's 160-atom
// system: 66.7 % AlCl₃ and 33.3 % KCl by formula unit, i.e. 32 AlCl₃ + 16
// KCl = 32 Al + 16 K + 112 Cl, which is charge-neutral.
func PaperComposition() []Species {
	var sp []Species
	for i := 0; i < 32; i++ {
		sp = append(sp, Al)
	}
	for i := 0; i < 16; i++ {
		sp = append(sp, K)
	}
	for i := 0; i < 112; i++ {
		sp = append(sp, Cl)
	}
	return sp
}

// NewSystem places the given species on a jittered cubic lattice inside a
// box of side length box, and draws Maxwell–Boltzmann velocities at
// temperature T.  Lattice seeding avoids the catastrophic overlaps random
// placement would produce.
func NewSystem(rng *rand.Rand, species []Species, box, temperature float64) *System {
	n := len(species)
	s := &System{
		Box:     box,
		Species: append([]Species(nil), species...),
		Pos:     make([]Vec3, n),
		Vel:     make([]Vec3, n),
		Frc:     make([]Vec3, n),
	}
	// Smallest cubic lattice that fits n sites.
	side := int(math.Ceil(math.Cbrt(float64(n))))
	a := box / float64(side)
	perm := rng.Perm(side * side * side)
	for i := 0; i < n; i++ {
		cell := perm[i]
		x := cell % side
		y := (cell / side) % side
		z := cell / (side * side)
		jitter := func() float64 { return (rng.Float64() - 0.5) * 0.1 * a }
		s.Pos[i] = Vec3{
			(float64(x)+0.5)*a + jitter(),
			(float64(y)+0.5)*a + jitter(),
			(float64(z)+0.5)*a + jitter(),
		}
	}
	s.SetTemperature(rng, temperature)
	return s
}

// SetTemperature draws fresh Maxwell–Boltzmann velocities at T and removes
// the center-of-mass drift.
func (s *System) SetTemperature(rng *rand.Rand, T float64) {
	var pTot Vec3
	var mTot float64
	for i := range s.Vel {
		m := s.Species[i].Mass()
		// σ_v = sqrt(k_B T / m) in Å/fs: k_B T [eV] → velocity² scale via
		// massTimeFactor (Å²/fs² per eV/amu).
		sigma := math.Sqrt(BoltzmannEV * T / m * massTimeFactor)
		v := Vec3{rng.NormFloat64() * sigma, rng.NormFloat64() * sigma, rng.NormFloat64() * sigma}
		s.Vel[i] = v
		pTot = pTot.Add(v.Scale(m))
		mTot += m
	}
	drift := pTot.Scale(1 / mTot)
	for i := range s.Vel {
		s.Vel[i] = s.Vel[i].Sub(drift)
	}
}

// KineticEnergy returns the total kinetic energy in eV.
func (s *System) KineticEnergy() float64 {
	ke := 0.0
	for i, v := range s.Vel {
		ke += 0.5 * s.Species[i].Mass() * v.Dot(v) / massTimeFactor
	}
	return ke
}

// Temperature returns the instantaneous kinetic temperature in K.
func (s *System) Temperature() float64 {
	dof := float64(3*s.N() - 3)
	if dof <= 0 {
		return 0
	}
	return 2 * s.KineticEnergy() / (dof * BoltzmannEV)
}

// Wrap applies the minimum-image convention to displacement d.
func (s *System) Wrap(d Vec3) Vec3 {
	for k := 0; k < 3; k++ {
		d[k] = neighbor.MinImage(d[k], s.Box)
	}
	return d
}

// WrapIntoBox maps every position into [0, Box).
func (s *System) WrapIntoBox() {
	for i := range s.Pos {
		for k := 0; k < 3; k++ {
			s.Pos[i][k] = neighbor.IntoBox(s.Pos[i][k], s.Box)
		}
	}
}

// Displacement returns the minimum-image vector from atom i to atom j.
func (s *System) Displacement(i, j int) Vec3 {
	return s.Wrap(s.Pos[j].Sub(s.Pos[i]))
}
