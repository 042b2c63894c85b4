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

// ParamGradFD returns ∂E/∂θ by central finite difference for entry j of
// the model's p-th parameter block (the flat ordering of Model.Params),
// restoring the parameter before returning.  It is the oracle for
// AccumulateEnergyGrad, which runs the batched backward sweep training
// accumulates its gradients with.
func ParamGradFD(m *deepmd.Model, coord []float64, types []int, box float64, p, j int, h float64) float64 {
	pg := m.Params()[p]
	orig := pg.Param[j]
	pg.Param[j] = orig + h
	ep := m.Energy(coord, types, box)
	pg.Param[j] = orig - h
	em := m.Energy(coord, types, box)
	pg.Param[j] = orig
	return (ep - em) / (2 * h)
}
