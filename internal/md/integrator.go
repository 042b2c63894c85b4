package md

import (
	"math"
	"math/rand"
)

// Thermostat rescales or perturbs velocities to steer temperature.
type Thermostat interface {
	// Apply adjusts velocities after the velocity-Verlet step.
	Apply(sys *System, dt float64)
}

// NVE is the no-thermostat (microcanonical) choice.
type NVE struct{}

// Apply implements Thermostat as a no-op.
func (NVE) Apply(*System, float64) {}

// Berendsen is the weak-coupling thermostat of Berendsen et al.: velocity
// scaling toward target temperature T with time constant Tau.
type Berendsen struct {
	T   float64 // target temperature, K
	Tau float64 // coupling time constant, fs
}

// Apply implements Thermostat.
func (b Berendsen) Apply(sys *System, dt float64) {
	cur := sys.Temperature()
	if cur <= 0 {
		return
	}
	lambda := math.Sqrt(1 + dt/b.Tau*(b.T/cur-1))
	for i := range sys.Vel {
		sys.Vel[i] = sys.Vel[i].Scale(lambda)
	}
}

// Langevin is a stochastic thermostat: velocities are damped with friction
// Gamma (1/fs) and kicked with matched Gaussian noise, yielding canonical
// sampling.
type Langevin struct {
	T     float64 // target temperature, K
	Gamma float64 // friction coefficient, 1/fs
	Rng   *rand.Rand
}

// Apply implements Thermostat.
func (l Langevin) Apply(sys *System, dt float64) {
	c1 := math.Exp(-l.Gamma * dt)
	for i := range sys.Vel {
		m := sys.Species[i].Mass()
		sigma := math.Sqrt(BoltzmannEV * l.T / m * massTimeFactor * (1 - c1*c1))
		for k := 0; k < 3; k++ {
			sys.Vel[i][k] = c1*sys.Vel[i][k] + sigma*l.Rng.NormFloat64()
		}
	}
}

// Integrator advances a system with velocity Verlet under a potential and
// optional thermostat.
type Integrator struct {
	Pot    Potential
	Thermo Thermostat
	Dt     float64 // timestep, fs
}

// NewIntegrator builds an integrator; a nil thermostat means NVE.
func NewIntegrator(pot Potential, thermo Thermostat, dt float64) *Integrator {
	if thermo == nil {
		thermo = NVE{}
	}
	return &Integrator{Pot: pot, Thermo: thermo, Dt: dt}
}

// Step advances the system by one timestep.  Forces must be valid on
// entry (call Pot.Compute once before the first Step).
func (it *Integrator) Step(sys *System) {
	dt := it.Dt
	half := 0.5 * dt
	// v(t+dt/2) = v(t) + a(t)·dt/2 ; x(t+dt) = x(t) + v(t+dt/2)·dt
	for i := range sys.Pos {
		invM := massTimeFactor / sys.Species[i].Mass()
		sys.Vel[i] = sys.Vel[i].Add(sys.Frc[i].Scale(half * invM))
		sys.Pos[i] = sys.Pos[i].Add(sys.Vel[i].Scale(dt))
	}
	sys.WrapIntoBox()
	it.Pot.Compute(sys)
	// v(t+dt) = v(t+dt/2) + a(t+dt)·dt/2
	for i := range sys.Vel {
		invM := massTimeFactor / sys.Species[i].Mass()
		sys.Vel[i] = sys.Vel[i].Add(sys.Frc[i].Scale(half * invM))
	}
	it.Thermo.Apply(sys, dt)
}

// Run advances nSteps steps, invoking observe (if non-nil) every
// observeEvery steps with the current step index.
func (it *Integrator) Run(sys *System, nSteps, observeEvery int, observe func(step int)) {
	it.Pot.Compute(sys)
	for s := 1; s <= nSteps; s++ {
		it.Step(sys)
		if observe != nil && observeEvery > 0 && s%observeEvery == 0 {
			observe(s)
		}
	}
}

// TotalEnergy returns kinetic + potential energy (forces/energy must be
// current).
func TotalEnergy(sys *System) float64 { return sys.KineticEnergy() + sys.PotEng }
