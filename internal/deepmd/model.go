// Package deepmd reimplements the DeePMD-kit training pipeline the paper
// tunes (§1, §2.1.2): a DeepPot-SE descriptor feeding per-species fitting
// networks whose summed atomic energies give the total energy, with forces
// obtained as the exact negative gradient of the predicted energy with
// respect to coordinates.  Training minimizes the DeePMD weighted
// energy+force loss with learning-rate-coupled prefactors, supports the
// three worker learning-rate scaling schemes, and emits an `lcurve.out`
// whose last rmse_e_val / rmse_f_val values are the EA's two fitness
// objectives (§2.2.4).
package deepmd

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/descriptor"
	"repro/internal/neighbor"
	"repro/internal/nn"
)

// ModelConfig describes a Deep Potential model.
type ModelConfig struct {
	// Descriptor is the DeepPot-SE configuration (rcut, rcut_smth,
	// embedding {25,50,100}, descriptor activation).
	Descriptor descriptor.Config
	// FittingSizes are the fitting-network hidden sizes; the paper fixes
	// {240, 240, 240}.
	FittingSizes []int
	// FittingActivation is the fitting-network activation (gene
	// fitting_activ_func).
	FittingActivation nn.Activation
	// NumSpecies is the number of atom types (3: Al, K, Cl).
	NumSpecies int
}

// Validate checks the configuration.
func (c *ModelConfig) Validate() error {
	if err := c.Descriptor.Validate(); err != nil {
		return err
	}
	if len(c.FittingSizes) == 0 {
		return fmt.Errorf("deepmd: FittingSizes empty")
	}
	for _, n := range c.FittingSizes {
		if n <= 0 {
			return fmt.Errorf("deepmd: fitting size %d not positive", n)
		}
	}
	if c.NumSpecies <= 0 || c.NumSpecies != c.Descriptor.NumSpecies {
		return fmt.Errorf("deepmd: NumSpecies %d inconsistent with descriptor %d",
			c.NumSpecies, c.Descriptor.NumSpecies)
	}
	if c.FittingActivation == nil {
		return fmt.Errorf("deepmd: FittingActivation required")
	}
	return nil
}

// Model is a trained or trainable Deep Potential.
type Model struct {
	Cfg  ModelConfig
	Desc *descriptor.Descriptor
	// Fit[t] maps the descriptor of an atom of species t to its atomic
	// energy contribution.
	Fit []*nn.MLP
	// Bias[t] is a constant atomic-energy offset per species, initialized
	// from the training-set mean so the networks only learn residuals.
	Bias []float64

	// param and grad are the model's two arenas: every layer's W and B
	// view param, and its GradW and GradB the same windows of grad, in
	// layers order (nn.NewArena).
	param, grad []float64
	// layers lists every layer in table order (layerTable): the embedding
	// nets in index order, then the fitting nets, each net's layers in
	// order.
	layers []*nn.Dense

	// threads bounds the per-atom worker pool (and EvalErrors' frame
	// pool).  Results are bit-identical for every value: per-atom
	// contributions are always merged in atom-index order.
	threads int
	// scratch pools per-worker evaluation state (environments, tapes,
	// neighbor lists).
	scratch sync.Pool
}

// layerTable declares cfg's layers in arena order: the embedding nets
// (descriptor.Config.Layers), then one fitting net per species — the
// fitting sizes with the fitting activation and a linear one-unit output.
// cfg must be valid.
func layerTable(cfg ModelConfig) []nn.Spec {
	table := cfg.Descriptor.Layers()
	fit := nn.MLPSpecs(cfg.Descriptor.OutDim(), cfg.FittingSizes, 1, cfg.FittingActivation)
	for range cfg.NumSpecies {
		table = append(table, fit...)
	}
	return table
}

// NewModel builds a model with randomly initialized networks: Glorot
// weights drawn into the parameter arena layer by layer in table order,
// zero biases.
func NewModel(rng *rand.Rand, cfg ModelConfig) (*Model, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	m := newModel(cfg)
	nn.Glorot(rng, m.layers)
	return m, nil
}

// newModel builds cfg's model over two fresh, zeroed arenas.  cfg must be
// valid.
func newModel(cfg ModelConfig) *Model {
	layers, param, grad := nn.NewArena(layerTable(cfg))
	m := assemble(cfg, layers)
	m.Bias, m.param, m.grad = make([]float64, cfg.NumSpecies), param, grad
	m.threads = runtime.GOMAXPROCS(0)
	m.scratch.New = func() any { return &evalScratch{} }
	return m
}

// assemble wires layers, laid out as layerTable(cfg) declares them, into
// a model's descriptor and fitting nets.
func assemble(cfg ModelConfig, layers []*nn.Dense) *Model {
	nEmbed := len(layers) - cfg.NumSpecies*(len(cfg.FittingSizes)+1)
	return &Model{
		Cfg:    cfg,
		Desc:   descriptor.New(cfg.Descriptor, layers[:nEmbed]),
		Fit:    nn.Split(layers[nEmbed:], cfg.NumSpecies),
		layers: layers,
	}
}

// SetThreads bounds the worker pool used inside EnergyForces /
// AccumulateEnergyGrad (per-atom parallelism), EvalErrors (per-frame
// parallelism) and TrainSource (data-parallel replicas).  n <= 0 restores
// the default, GOMAXPROCS.  Predictions and gradients are bit-identical
// for every setting; only wall time changes.  Not safe to call
// concurrently with evaluations.
func (m *Model) SetThreads(n int) {
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
	}
	m.threads = n
}

// Threads reports the current worker-pool bound.
func (m *Model) Threads() int { return m.threads }

// evalScratch is the reusable per-worker state of one in-flight atom tile
// (or, in EvalErrors, one in-flight frame).  Buffers are either
// overwritten on use or zeroed after merging, so pooled reuse never
// affects results.
type evalScratch struct {
	// Tiled-evaluation state (computeTile): per-slot environments,
	// energies, and coordinate-gradient buffers, plus fitting-net batch
	// scratch.  Invariant outside a compute/merge pair: every slot's
	// dcoord buffer is all zeros.
	envs   []*descriptor.Env
	tileE  []float64
	tileDc [][]float64
	ftTape *nn.BatchTape
	ftIn   []float64
	ftDy   []float64
	ftRows []int

	// Frame-level scratch for EvalErrors / public wrappers.
	nl     neighbor.List
	forces []float64
}

// ensureTile sizes the tiled-evaluation buffers for n atom slots in a
// configuration of n3 coordinates.
func (s *evalScratch) ensureTile(n, n3 int) {
	if len(s.envs) < n {
		s.envs = append(s.envs, make([]*descriptor.Env, n-len(s.envs))...)
	}
	if len(s.tileE) < n {
		s.tileE = append(s.tileE, make([]float64, n-len(s.tileE))...)
	}
	if len(s.tileDc) < n {
		s.tileDc = append(s.tileDc, make([][]float64, n-len(s.tileDc))...)
	}
	for k := 0; k < n; k++ {
		if len(s.tileDc[k]) != n3 {
			s.tileDc[k] = make([]float64, n3)
		}
	}
}

// ensureLen returns buf resized to n, reusing its backing array when the
// capacity allows.
func ensureLen(buf []float64, n int) []float64 {
	if cap(buf) < n {
		return make([]float64, n)
	}
	return buf[:n]
}

func (m *Model) getScratch() *evalScratch { return m.scratch.Get().(*evalScratch) }

func (m *Model) putScratch(s *evalScratch) { m.scratch.Put(s) }

// evalMode selects what a tile evaluation computes.
type evalMode int

const (
	modeEnergy evalMode = iota // energy only
	modeForces                 // energy + coordinate gradients
)

// fitTile is the atom-tile width of the batched inference paths: energy
// and force evaluation feed up to this many descriptor outputs through
// each fitting network per ForwardBatch/InputGradBatch call.  Training
// batches whole frames instead (accumulateBatchGrad).
const fitTile = 16

// tileBounds returns the atom index range [lo, hi) of tile u.
func tileBounds(u, nAtoms int) (lo, hi int) {
	lo = u * fitTile
	hi = lo + fitTile
	if hi > nAtoms {
		hi = nAtoms
	}
	return lo, hi
}

// computeTile evaluates atoms [u·fitTile, …) into the scratch's tile
// slots: per-atom descriptor forwards, then one batched fitting-net
// forward (and, for modeForces, one batched input-gradient pass) per
// species present in the tile.  Every per-atom value is bit-identical to
// a one-atom evaluation: batch rows reduce in the scalar order, and each
// slot's coordinate gradients accumulate into a private buffer.
//
//lint:hot
func (m *Model) computeTile(s *evalScratch, mode evalMode, coord []float64, types []int, box float64, u int, nl *neighbor.List) {
	lo, hi := tileBounds(u, len(types))
	n := hi - lo
	s.ensureTile(n, len(coord))
	outDim := m.Cfg.Descriptor.OutDim()
	for k := 0; k < n; k++ {
		s.envs[k] = m.Desc.ForwardEnv(s.envs[k], coord, types, box, lo+k, nl.Candidates(lo+k))
	}
	if s.ftTape == nil {
		s.ftTape = &nn.BatchTape{}
	}
	for t := 0; t < m.Cfg.NumSpecies; t++ {
		rows := s.ftRows[:0]
		for k := 0; k < n; k++ {
			if types[lo+k] == t {
				rows = append(rows, k)
			}
		}
		s.ftRows = rows
		if len(rows) == 0 {
			continue
		}
		s.ftIn = ensureLen(s.ftIn, len(rows)*outDim)
		for r, k := range rows {
			copy(s.ftIn[r*outDim:(r+1)*outDim], s.envs[k].Out())
		}
		out := m.Fit[t].ForwardBatch(s.ftTape, s.ftIn, len(rows))
		for r, k := range rows {
			s.tileE[k] = out[r] + m.Bias[t]
		}
		if mode == modeForces {
			s.ftDy = ensureLen(s.ftDy, len(rows))
			for r := range s.ftDy {
				s.ftDy[r] = 1
			}
			dEdD := m.Fit[t].InputGradBatch(s.ftTape, s.ftDy, len(rows))
			for r, k := range rows {
				m.Desc.Backward(s.envs[k], dEdD[r*outDim:(r+1)*outDim], s.tileDc[k])
			}
		}
	}
}

// mergeTile folds a computed tile into the global accumulators in strict
// atom order, restoring each slot's zeroed-dcoord invariant.
//
//lint:hot
func (m *Model) mergeTile(s *evalScratch, mode evalMode, types []int, u int, energy *float64, dcoord []float64) {
	lo, hi := tileBounds(u, len(types))
	for k := 0; k < hi-lo; k++ {
		*energy += s.tileE[k]
		if mode == modeEnergy {
			continue
		}
		env := s.envs[k]
		dc := s.tileDc[k]
		c := env.Center()
		for x := 0; x < 3; x++ {
			if dcoord != nil {
				dcoord[3*c+x] += dc[3*c+x]
			}
			dc[3*c+x] = 0
		}
		for _, j := range env.NeighborAtoms() {
			for x := 0; x < 3; x++ {
				if dcoord != nil {
					dcoord[3*j+x] += dc[3*j+x]
				}
				dc[3*j+x] = 0
			}
		}
	}
}

// forEachTile runs compute for every fitTile-wide atom tile and merge in
// strict tile order.  With threads <= 1 (or few tiles) it runs inline;
// otherwise a bounded worker pool computes tiles concurrently while the
// calling goroutine merges results as their turn comes up.  Because merge
// order is always ascending tile index — and tiles cover ascending atom
// ranges — the arithmetic, and therefore every bit of the output, is
// identical for any worker count.
func (m *Model) forEachTile(nAtoms int, compute func(*evalScratch, int), merge func(*evalScratch, int)) {
	nUnits := (nAtoms + fitTile - 1) / fitTile
	threads := m.threads
	if threads > nUnits {
		threads = nUnits
	}
	if threads <= 1 {
		s := m.getScratch()
		for i := 0; i < nUnits; i++ {
			compute(s, i)
			merge(s, i)
		}
		m.putScratch(s)
		return
	}

	nScratch := threads + 1
	free := make(chan *evalScratch, nScratch)
	for j := 0; j < nScratch; j++ {
		free <- m.getScratch()
	}
	type result struct {
		i int
		s *evalScratch
	}
	results := make(chan result, nScratch)
	var next int64
	var wg sync.WaitGroup
	for w := 0; w < threads; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				// Take a scratch before claiming an index: a worker that
				// owns the next-to-merge unit must never block on the
				// free list, or the pipeline deadlocks.
				s := <-free
				i := int(atomic.AddInt64(&next, 1)) - 1
				if i >= nUnits {
					free <- s
					return
				}
				compute(s, i)
				results <- result{i, s}
			}
		}()
	}
	pending := make([]*evalScratch, nUnits)
	for want := 0; want < nUnits; {
		r := <-results
		pending[r.i] = r.s
		for want < nUnits && pending[want] != nil {
			merge(pending[want], want)
			free <- pending[want]
			pending[want] = nil
			want++
		}
	}
	wg.Wait()
	close(free)
	for s := range free {
		m.putScratch(s)
	}
}

// withList builds a skinless neighbor list for the configuration in
// pooled scratch and hands it to fn.
func (m *Model) withList(coord []float64, box float64, fn func(nl *neighbor.List)) {
	s := m.getScratch()
	s.nl.Build(coord, box, m.Cfg.Descriptor.RCut, 0)
	fn(&s.nl)
	m.putScratch(s)
}

// Energy returns the predicted total energy of a configuration.
func (m *Model) Energy(coord []float64, types []int, box float64) (energy float64) {
	m.withList(coord, box, func(nl *neighbor.List) {
		energy = m.EnergyNL(nl, coord, types, box)
	})
	return energy
}

// EnergyNL is Energy against a caller-provided neighbor list (built for
// these coordinates, or for nearby ones within the list's skin).
func (m *Model) EnergyNL(nl *neighbor.List, coord []float64, types []int, box float64) float64 {
	energy := 0.0
	m.forEachTile(len(types),
		func(s *evalScratch, u int) {
			m.computeTile(s, modeEnergy, coord, types, box, u, nl)
		},
		func(s *evalScratch, u int) {
			m.mergeTile(s, modeEnergy, types, u, &energy, nil)
		})
	return energy
}

// EnergyForces returns the predicted total energy and per-coordinate
// forces F = −∂E/∂x (flat, atom-major xyz).
func (m *Model) EnergyForces(coord []float64, types []int, box float64) (energy float64, forces []float64) {
	forces = make([]float64, len(coord))
	m.withList(coord, box, func(nl *neighbor.List) {
		energy = m.EnergyForcesNL(nl, coord, types, box, forces)
	})
	return energy, forces
}

// EnergyForcesNL is EnergyForces against a caller-provided neighbor list,
// writing forces into the caller's buffer (len 3N, contents overwritten).
func (m *Model) EnergyForcesNL(nl *neighbor.List, coord []float64, types []int, box float64, forces []float64) (energy float64) {
	for k := range forces {
		forces[k] = 0
	}
	m.forEachTile(len(types),
		func(s *evalScratch, u int) {
			m.computeTile(s, modeForces, coord, types, box, u, nl)
		},
		func(s *evalScratch, u int) {
			m.mergeTile(s, modeForces, types, u, &energy, forces)
		})
	for k := range forces {
		forces[k] = -forces[k]
	}
	return energy
}

// evalFrame computes one frame's energy and forces serially on the given
// scratch, reusing the scratch's neighbor list and force buffer.  It is
// the building block EvalErrors parallelizes over frames; the returned
// slice is scratch-owned.
func (m *Model) evalFrame(s *evalScratch, coord []float64, types []int, box float64) (float64, []float64) {
	s.nl.Build(coord, box, m.Cfg.Descriptor.RCut, 0)
	if cap(s.forces) < len(coord) {
		s.forces = make([]float64, len(coord))
	}
	s.forces = s.forces[:len(coord)]
	for k := range s.forces {
		s.forces[k] = 0
	}
	energy := 0.0
	nUnits := (len(types) + fitTile - 1) / fitTile
	for u := 0; u < nUnits; u++ {
		m.computeTile(s, modeForces, coord, types, box, u, &s.nl)
		m.mergeTile(s, modeForces, types, u, &energy, s.forces)
	}
	for k := range s.forces {
		s.forces[k] = -s.forces[k]
	}
	return energy, s.forces
}

// Arenas returns the model's parameter and gradient arenas: every
// layer's W and B, then the next layer's, in table order (layerTable).
// Writes through them are writes to the model.
func (m *Model) Arenas() (param, grad []float64) { return m.param, m.grad }

// ZeroGrad clears the gradient arena.
func (m *Model) ZeroGrad() { clear(m.grad) }

// ParamCount returns the total number of trainable parameters.
func (m *Model) ParamCount() int { return len(m.param) }
