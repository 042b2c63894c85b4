package deepmd

import (
	"repro/internal/md"
	"repro/internal/neighbor"
)

// MDPotential deploys a trained deep potential inside the MD engine —
// the end goal of the whole pipeline: quantum-accuracy dynamics at
// classical cost (§1).  It implements md.Potential, so a trained model
// drops into the same integrators and thermostats as the reference
// Born–Mayer–Huggins potential.
type MDPotential struct {
	Model *Model
	// types caches the per-atom species indices for the current system.
	types []int
	// scratch buffers to avoid per-step allocation.
	coord, forces []float64
	nl            neighbor.List
}

// NewMDPotential wraps a trained model for MD deployment.
func NewMDPotential(m *Model) *MDPotential { return &MDPotential{Model: m} }

// Cutoff implements md.Potential.
func (p *MDPotential) Cutoff() float64 { return p.Model.Cfg.Descriptor.RCut }

// Compute implements md.Potential: predicted energy into sys.PotEng and
// forces (−∇E, exact gradients through the descriptor) into sys.Frc.
func (p *MDPotential) Compute(sys *md.System) {
	n := sys.N()
	if len(p.types) != n {
		p.types = make([]int, n)
		for i, s := range sys.Species {
			p.types[i] = int(s)
		}
		p.coord = make([]float64, 3*n)
		p.forces = make([]float64, 3*n)
	}
	for i := 0; i < n; i++ {
		for k := 0; k < 3; k++ {
			p.coord[3*i+k] = sys.Pos[i][k]
		}
	}
	p.nl.Build(p.coord, sys.Box, p.Cutoff(), 0)
	sys.PotEng = p.Model.EnergyForcesNL(&p.nl, p.coord, p.types, sys.Box, p.forces)
	for i := 0; i < n; i++ {
		for k := 0; k < 3; k++ {
			sys.Frc[i][k] = p.forces[3*i+k]
		}
	}
}
