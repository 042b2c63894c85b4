package refcheck

import (
	"repro/internal/deepmd"
)

// ForceFD returns the force on coordinate k, −∂E/∂x_k, of a model by
// symmetric central finite difference with step h: the reference against
// which the analytic backward pass of descriptor+fitting networks is
// verified.  Accurate to O(h²) for the smooth activations.
func ForceFD(m *deepmd.Model, coord []float64, types []int, box float64, k int, h float64) float64 {
	pos := append([]float64(nil), coord...)
	pos[k] = coord[k] + h
	ep := m.Energy(pos, types, box)
	pos[k] = coord[k] - h
	em := m.Energy(pos, types, box)
	return -(ep - em) / (2 * h)
}

// ParamGradFD returns ∂E/∂θ_i by central finite difference for entry i
// of the model's parameter arena (Model.Arenas), restoring the parameter
// before returning.  It is the oracle for AccumulateEnergyGrad, which
// runs the batched backward sweep training accumulates its gradients
// with.
func ParamGradFD(m *deepmd.Model, coord []float64, types []int, box float64, i int, h float64) float64 {
	param, _ := m.Arenas()
	orig := param[i]
	param[i] = orig + h
	ep := m.Energy(coord, types, box)
	param[i] = orig - h
	em := m.Energy(coord, types, box)
	param[i] = orig
	return (ep - em) / (2 * h)
}
