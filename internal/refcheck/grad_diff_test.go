package refcheck

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/deepmd"
	"repro/internal/descriptor"
	"repro/internal/nn"
)

// smoothActivations excludes relu/relu6: central differences straddling
// a kink measure the subgradient average, not the analytic derivative.
var smoothActivations = []nn.Activation{nn.Tanh, nn.Sigmoid, nn.Softplus}

// randSystem draws a small configuration with a minimum pair separation
// so finite differences are not dominated by switching-function
// curvature from nearly coincident atoms.
func randSystem(rng *rand.Rand, nAtoms, nSpecies int, box float64) (coord []float64, types []int) {
	coord = make([]float64, 3*nAtoms)
	types = make([]int, nAtoms)
	span := box
	if span <= 0 {
		span = 6
	}
	for i := 0; i < nAtoms; i++ {
		types[i] = rng.Intn(nSpecies)
	retry:
		for attempt := 0; ; attempt++ {
			for k := 0; k < 3; k++ {
				coord[3*i+k] = rng.Float64() * span
			}
			if attempt > 200 {
				break
			}
			for j := 0; j < i; j++ {
				var d2 float64
				for k := 0; k < 3; k++ {
					dk := coord[3*i+k] - coord[3*j+k]
					if box > 0 {
						dk -= box * math.Round(dk/box)
					}
					d2 += dk * dk
				}
				if d2 < 0.8*0.8 {
					continue retry
				}
			}
			break
		}
	}
	return coord, types
}

func randTinyModel(rng *rand.Rand) (*deepmd.Model, int) {
	nSpecies := 1 + rng.Intn(2)
	act := smoothActivations[rng.Intn(len(smoothActivations))]
	cfg := deepmd.ModelConfig{
		Descriptor: descriptor.Config{
			RCut:           3 + rng.Float64(),
			RCutSmth:       0.5 + rng.Float64()*0.5,
			EmbeddingSizes: []int{2 + rng.Intn(3), 4},
			AxisNeurons:    1 + rng.Intn(2),
			Activation:     act,
			NumSpecies:     nSpecies,
			NeighborNorm:   6,
		},
		FittingSizes:      []int{3 + rng.Intn(4)},
		FittingActivation: act,
		NumSpecies:        nSpecies,
	}
	m, err := deepmd.NewModel(rng, cfg)
	if err != nil {
		panic(err)
	}
	return m, nSpecies
}

func fdTol(analytic float64) float64 {
	return 1e-6 * (1 + math.Abs(analytic))
}

// TestForcesMatchFiniteDifferences cross-checks the reverse-mode forces
// from EnergyForces against central finite differences of Energy over
// 200 random tiny systems — open and periodic boxes, mixed species,
// every smooth activation.  A handful of random force components are
// probed per instance.
func TestForcesMatchFiniteDifferences(t *testing.T) {
	rng := rand.New(rand.NewSource(501))
	const instances = 200
	const h = 1e-5
	for trial := 0; trial < instances; trial++ {
		m, nSpecies := randTinyModel(rng)
		nAtoms := 3 + rng.Intn(4)
		var box float64
		if rng.Intn(3) > 0 {
			box = 5 + rng.Float64()*3
		}
		coord, types := randSystem(rng, nAtoms, nSpecies, box)

		energy, forces := m.EnergyForces(coord, types, box)
		if e2 := m.Energy(coord, types, box); e2 != energy {
			t.Fatalf("trial %d: Energy %v disagrees with EnergyForces energy %v", trial, e2, energy)
		}
		for probe := 0; probe < 3; probe++ {
			k := rng.Intn(3 * nAtoms)
			want := ForceFD(m, coord, types, box, k, h)
			if math.Abs(forces[k]-want) > fdTol(want) {
				t.Fatalf("trial %d (box=%g, %d atoms): force[%d] = %v, finite difference %v",
					trial, box, nAtoms, k, forces[k], want)
			}
		}
	}
}

// TestParamGradMatchesFiniteDifferences cross-checks the reverse-mode
// parameter gradient of the total energy (AccumulateEnergyGrad with
// scale 1) against central finite differences under parameter
// perturbation, probing random entries across embedding and fitting
// networks of 200 random tiny models.  Each probe picks a layer, then its
// weights or its bias with even odds: a uniform draw over the arena would
// almost never hit a bias.
func TestParamGradMatchesFiniteDifferences(t *testing.T) {
	rng := rand.New(rand.NewSource(502))
	const instances = 200
	const h = 1e-5
	for trial := 0; trial < instances; trial++ {
		m, nSpecies := randTinyModel(rng)
		nAtoms := 3 + rng.Intn(3)
		var box float64
		if rng.Intn(3) == 0 {
			box = 5 + rng.Float64()*3
		}
		coord, types := randSystem(rng, nAtoms, nSpecies, box)

		m.ZeroGrad()
		m.AccumulateEnergyGrad(coord, types, box, 1)
		_, grad := m.Arenas()
		windows := tensorWindows(m)
		for probe := 0; probe < 3; probe++ {
			w := windows[rng.Intn(len(windows))]
			i := w[0] + rng.Intn(w[1]-w[0])
			got := grad[i]
			want := ParamGradFD(m, coord, types, box, i, h)
			if math.Abs(got-want) > fdTol(want) {
				t.Fatalf("trial %d: grad of parameter %d (tensor [%d, %d)) = %v, finite difference %v",
					trial, i, w[0], w[1], got, want)
			}
		}
	}
}

// tensorWindows returns the arena range [lo, hi) of every layer's W and
// then its B, in table order: embedding nets, then fitting nets.
func tensorWindows(m *deepmd.Model) [][2]int {
	var nets []*nn.MLP
	nets = append(nets, m.Desc.Embed...)
	nets = append(nets, m.Fit...)
	var windows [][2]int
	off := 0
	for _, net := range nets {
		for _, l := range net.Layers {
			windows = append(windows, [2]int{off, off + l.In*l.Out}, [2]int{off + l.In*l.Out, off + l.In*l.Out + l.Out})
			off += l.In*l.Out + l.Out
		}
	}
	return windows
}
