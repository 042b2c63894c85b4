package deepmd

import (
	"math"
	"sync"
	"sync/atomic"

	"repro/internal/dataset"
	"repro/internal/descriptor"
	"repro/internal/neighbor"
	"repro/internal/nn"
)

// sweep is the workspace of one pass of a list of atom slots through the
// networks: their descriptor environments, one fused embedding batch
// (EnvBatch) and one fitting batch per species.  Training sweeps a slot
// per atom of every frame of a worker batch (slot = frame·N + atom);
// inference sweeps one atom tile (slot = atom − tile start).
type sweep struct {
	slots []int             // active slots, in row order
	envs  []*descriptor.Env // per slot
	// energies[slot] is the atomic energy from the fitting forward.
	energies []float64
	// dEdD[slot] views the fitting net's input gradient for the slot's
	// row; valid until the next batched fitting pass reuses the buffers.
	dEdD [][]float64

	// eb and envList drive the fused embedding path: one embedding
	// forward/backward per network spanning every active slot.
	eb      descriptor.EnvBatch
	envList []*descriptor.Env

	fit []fitBatch // per species
}

// fitBatch is one species' fitting-net batch of a sweep.
type fitBatch struct {
	rows []int     // slots, in row order
	in   []float64 // rows×OutDim descriptor inputs
	dy   []float64 // rows×1 upstream gradients
	tape *nn.BatchTape
}

// ensure sizes the sweep for nSlots slots over nSpecies fitting nets.
func (sw *sweep) ensure(nSpecies, nSlots int) {
	if len(sw.envs) < nSlots {
		sw.envs = append(sw.envs, make([]*descriptor.Env, nSlots-len(sw.envs))...)
	}
	sw.energies = ensureLen(sw.energies, nSlots)
	if len(sw.dEdD) < nSlots {
		sw.dEdD = append(sw.dEdD, make([][]float64, nSlots-len(sw.dEdD))...)
	}
	if len(sw.fit) < nSpecies {
		sw.fit = append(sw.fit, make([]fitBatch, nSpecies-len(sw.fit))...)
	}
}

// batchScratch is the reusable workspace of the whole-frame training
// path: the sweep over every slot of a worker batch and the per-frame
// force-loss state.  Each data-parallel replica owns one for a whole
// training run, so the hot loop allocates nothing in steady state.
type batchScratch struct {
	sweep
	// threads bounds forwardSlots' worker pool (wall time only).
	threads int

	nls []neighbor.List // per frame

	// Per-frame force-loss state.
	ePred, dE, vnorm, scaleF []float64
	forces, v, pos           [][]float64
	active                   []bool

	// vframes doubles the batch for the fused ± sweep: frame f appears
	// twice, displaced +h·v̂ as virtual frame f and −h·v̂ as B+f.
	vframes []*dataset.Frame
}

// ensure sizes the workspace for a batch of nFrames frames of len(types)
// atoms and the 2·nFrames virtual frames of its fused ± sweep — all up
// front, because growing mid-pass would discard the per-frame loss state
// (ensureLen does not preserve contents across reallocation).
func (ws *batchScratch) ensure(m *Model, types []int, nFrames int) {
	n := len(types)
	n3 := 3 * n
	nVirtual := 2 * nFrames
	if len(ws.nls) < nVirtual {
		ws.nls = append(ws.nls, make([]neighbor.List, nVirtual-len(ws.nls))...)
	}
	ws.sweep.ensure(m.Cfg.NumSpecies, nVirtual*n)
	ws.ePred = ensureLen(ws.ePred, nVirtual)
	ws.dE = ensureLen(ws.dE, nVirtual)
	ws.vnorm = ensureLen(ws.vnorm, nVirtual)
	ws.scaleF = ensureLen(ws.scaleF, nVirtual)
	for _, buf := range []*[][]float64{&ws.forces, &ws.v, &ws.pos} {
		if len(*buf) < nVirtual {
			*buf = append(*buf, make([][]float64, nVirtual-len(*buf))...)
		}
		for f := 0; f < nVirtual; f++ {
			if len((*buf)[f]) != n3 {
				(*buf)[f] = make([]float64, n3)
			}
		}
	}
	if len(ws.active) < nVirtual {
		ws.active = append(ws.active, make([]bool, nVirtual-len(ws.active))...)
	}
}

// accumulateBatchGrad adds the loss gradient of a batch of frames to the
// model's accumulators.
//
// Energy term: ∂/∂θ [p_e (ΔE/N)²] = (2·p_e·ΔE/N²)·∂E/∂θ.
//
// Force term: with F = −∇ₓE and v = F_pred − F_ref,
// ∂/∂θ [p_f/(3N)·‖v‖²] = −(2·p_f/3N)·vᵀ ∂(∇ₓE)/∂θ, and the contraction
// vᵀ∂(∇ₓE)/∂θ is evaluated exactly to O(h²) as the directional central
// difference [∂E/∂θ(x+h·v̂) − ∂E/∂θ(x−h·v̂)]·|v|/(2h) — second-order
// backprop through the descriptor without a second autodiff pass.
//
// The pass structure is two sweeps: the base one, whose descriptor
// environments and tapes serve both the force evaluation (InputGradBatch
// + BackwardEnvBatchGeometry) and the base parameter pass (BackwardBatch
// + BackwardEnvBatchParams), and one fused ±h·v̂ sweep over twice the
// frames.
//
// Every network sees one batch per sweep: the per-species fitting batches
// and the per-network embedding batches span every frame of the batch,
// rows in slot (frame-major, atom-ascending) order, and blas.AccumGrad
// reduces rows in ascending order.  That fixes the order of every
// floating-point reduction, so the gradient is the same bits for any
// thread count.
//
// m may be a data-parallel replica (see newReplica): the sweep reads
// parameters, writes only m's gradient accumulators and ws, and touches
// no other shared state.
//
// One neighbor list per frame serves both sweeps: the ±h·v̂
// displacements move every atom by at most h, so a skin of a few h keeps
// the candidate lists valid at the perturbed coordinates.
func (m *Model) accumulateBatchGrad(ws *batchScratch, types []int, frames []*dataset.Frame, pe, pf, h float64) error {
	B := len(frames)
	n := len(types)
	ws.ensure(m, types, B)

	for f, fr := range frames {
		ws.nls[f].Build(fr.Coord, fr.Box, m.Cfg.Descriptor.RCut, 4*h)
		ws.active[f] = true
	}

	// Base sweep: descriptor environments for every slot, then one
	// fitting-net forward batch per species.
	m.forwardSlots(ws, types, frames, false)
	ws.buildRows(types)
	m.fitForward(&ws.sweep, true)

	for f, fr := range frames {
		e := 0.0
		for i := 0; i < n; i++ {
			e += ws.energies[f*n+i]
		}
		if !finite(e) {
			return ErrDiverged
		}
		ws.ePred[f] = e
		ws.dE[f] = e - fr.Energy
	}

	// Forces: batched fitting input gradients, then the fused geometry
	// backward adding each slot's ∂E/∂x into its frame's buffer.
	m.fitInputGrad(&ws.sweep)
	for f := range frames {
		forces := ws.forces[f]
		for k := range forces {
			forces[k] = 0
		}
	}
	m.Desc.BackwardEnvBatchGeometry(&ws.eb, ws.envList,
		func(vi int) []float64 { return ws.dEdD[ws.slots[vi]] },
		func(vi int) []float64 { return ws.forces[ws.slots[vi]/n] })
	for f, fr := range frames {
		// forces currently holds +∂E/∂x; F_pred = −∂E/∂x, so the residual
		// v = F_pred − F_ref reads −forces − F_ref (negation is exact).
		forces := ws.forces[f]
		vn := 0.0
		v := ws.v[f]
		for k := range v {
			v[k] = -forces[k] - fr.Force[k]
			vn += v[k] * v[k]
		}
		ws.vnorm[f] = math.Sqrt(vn)
	}

	// Base parameter pass, reusing the environments and tapes of the base
	// sweep: dy row = 2·p_e·ΔE/N² of the row's frame.
	m.fitBackward(&ws.sweep, n, func(f int) float64 { return 2 * pe * ws.dE[f] / float64(n*n) })
	m.embedBackward(&ws.sweep)

	// ±h·v̂ sweeps over frames with a nonzero force residual.  A frame
	// whose forces are already exact contributes no force gradient.
	any := false
	for f := range frames {
		if ws.vnorm[f] < 1e-14 {
			ws.active[f] = false
			continue
		}
		any = true
		ws.scaleF[f] = -(2 * pf / float64(3*n)) * ws.vnorm[f] / (2 * h)
	}
	if !any {
		return nil
	}
	// Fused ± sweep: one virtual batch of 2B frames — frame f displaced
	// +h·v̂ as virtual frame f and −h·v̂ as B+f — so the embedding and
	// fitting networks see one pass with twice the rows instead of two
	// half-size passes.
	ws.vframes = append(ws.vframes[:0], frames...)
	ws.vframes = append(ws.vframes, frames...)
	for f, fr := range frames {
		ws.active[B+f] = ws.active[f]
		ws.nls[B+f] = ws.nls[f]
		if !ws.active[f] {
			continue
		}
		pos, neg, v, vn := ws.pos[f], ws.pos[B+f], ws.v[f], ws.vnorm[f]
		for k := range pos {
			d := h * v[k] / vn
			pos[k] = fr.Coord[k] + d
			neg[k] = fr.Coord[k] - d
		}
	}
	m.forwardSlots(ws, types, ws.vframes, true)
	ws.buildRows(types)
	m.fitForward(&ws.sweep, false)
	m.fitBackward(&ws.sweep, n, func(f int) float64 {
		if f < B {
			return ws.scaleF[f]
		}
		return -ws.scaleF[f-B]
	})
	m.embedBackward(&ws.sweep)
	return nil
}

// AccumulateEnergyGrad adds scale·∂E/∂θ to the parameter-gradient
// accumulators for the given configuration and returns the predicted
// energy.  It is the backward sweep training runs — accumulateBatchGrad's
// base parameter pass on a one-frame batch — exposed so finite-difference
// oracles check the code that produces lcurve.out.
func (m *Model) AccumulateEnergyGrad(coord []float64, types []int, box float64, scale float64) (energy float64) {
	m.withList(coord, box, func(nl *neighbor.List) {
		energy = m.AccumulateEnergyGradNL(nl, coord, types, box, scale)
	})
	return energy
}

// AccumulateEnergyGradNL is AccumulateEnergyGrad against a caller-provided
// neighbor list; the list's skin must cover any displacement between the
// list's build coordinates and coord.
func (m *Model) AccumulateEnergyGradNL(nl *neighbor.List, coord []float64, types []int, box float64, scale float64) float64 {
	n := len(types)
	ws := &batchScratch{threads: m.threads}
	ws.ensure(m, types, 1)
	ws.nls[0], ws.active[0] = *nl, true
	m.forwardSlots(ws, types, []*dataset.Frame{{Coord: coord, Box: box}}, false)
	ws.buildRows(types)
	m.fitForward(&ws.sweep, true)
	m.fitBackward(&ws.sweep, n, func(int) float64 { return scale })
	m.embedBackward(&ws.sweep)
	energy := 0.0
	for _, e := range ws.energies[:n] {
		energy += e
	}
	return energy
}

// forwardSlots evaluates the descriptor environment of every active slot,
// at the frames' own coordinates or (displaced=true) at ws.pos.  The
// per-slot work is only the neighbourhood scan — slots are independent,
// so the worker pool affects wall time only — and the embedding networks
// then run once per net over every slot.
func (m *Model) forwardSlots(ws *batchScratch, types []int, frames []*dataset.Frame, displaced bool) {
	n := len(types)
	ws.slots = ws.slots[:0]
	for f := range frames {
		if !ws.active[f] {
			continue
		}
		for i := 0; i < n; i++ {
			ws.slots = append(ws.slots, f*n+i)
		}
	}
	threads := ws.threads
	if threads > len(ws.slots) {
		threads = len(ws.slots)
	}
	if threads <= 1 {
		for _, slot := range ws.slots {
			m.scanSlot(ws, types, frames, displaced, slot)
		}
	} else {
		var next int64
		var wg sync.WaitGroup
		for w := 0; w < threads; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					k := int(atomic.AddInt64(&next, 1)) - 1
					if k >= len(ws.slots) {
						return
					}
					m.scanSlot(ws, types, frames, displaced, ws.slots[k])
				}
			}()
		}
		wg.Wait()
	}
	m.embedForward(&ws.sweep)
}

// embedForward runs the scanned environments of the sweep's slots
// through the embedding networks: one ForwardEnvBatch.
func (m *Model) embedForward(sw *sweep) {
	sw.envList = sw.envList[:0]
	for _, slot := range sw.slots {
		sw.envList = append(sw.envList, sw.envs[slot])
	}
	m.Desc.ForwardEnvBatch(&sw.eb, sw.envList)
}

// scanSlot runs the neighbourhood scan of one slot.  A method, not a
// closure in forwardSlots: one captured by the pool's goroutines would be
// heap-allocated on the serial path too.
func (m *Model) scanSlot(ws *batchScratch, types []int, frames []*dataset.Frame, displaced bool, slot int) {
	n := len(types)
	f, i := slot/n, slot%n
	coord := frames[f].Coord
	if displaced {
		coord = ws.pos[f]
	}
	ws.envs[slot] = m.Desc.ScanEnv(ws.envs[slot], coord, types, frames[f].Box, i, ws.nls[f].Candidates(i))
}

// buildRows groups the active slots by species in slot order — the row
// layout of every batched fitting pass.  Slot s holds atom
// s mod len(types).
func (sw *sweep) buildRows(types []int) {
	for t := range sw.fit {
		sw.fit[t].rows = sw.fit[t].rows[:0]
	}
	for _, slot := range sw.slots {
		fb := &sw.fit[types[slot%len(types)]]
		fb.rows = append(fb.rows, slot)
	}
}

// fitForward runs one batched fitting forward per species over the
// current rows, recording tapes for the backward passes.  withEnergy
// additionally writes biased atomic energies into sw.energies.
func (m *Model) fitForward(sw *sweep, withEnergy bool) {
	outDim := m.Cfg.Descriptor.OutDim()
	for t := range sw.fit {
		fb := &sw.fit[t]
		rows := fb.rows
		if len(rows) == 0 {
			continue
		}
		if fb.tape == nil {
			fb.tape = &nn.BatchTape{}
		}
		fb.in = ensureLen(fb.in, len(rows)*outDim)
		for r, slot := range rows {
			copy(fb.in[r*outDim:(r+1)*outDim], sw.envs[slot].Out())
		}
		out := m.Fit[t].ForwardBatch(fb.tape, fb.in, len(rows))
		if withEnergy {
			for r, slot := range rows {
				sw.energies[slot] = out[r] + m.Bias[t]
			}
		}
	}
}

// fitInputGrad computes dE/dD for every row (dy = 1) without touching
// parameter accumulators, leaving per-slot views in sw.dEdD.  The views
// alias tape buffers: consume them before the next batched fitting pass.
func (m *Model) fitInputGrad(sw *sweep) {
	outDim := m.Cfg.Descriptor.OutDim()
	for t := range sw.fit {
		fb := &sw.fit[t]
		rows := fb.rows
		if len(rows) == 0 {
			continue
		}
		fb.dy = ensureLen(fb.dy, len(rows))
		for r := range fb.dy {
			fb.dy[r] = 1
		}
		dx := m.Fit[t].InputGradBatch(fb.tape, fb.dy, len(rows))
		for r, slot := range rows {
			sw.dEdD[slot] = dx[r*outDim : (r+1)*outDim]
		}
	}
}

// fitBackward runs one batched fitting backward per species with
// dy row = scaleOf(row's frame), accumulating parameter gradients
// directly into m.Fit and leaving scaled dL/dD views in sw.dEdD.
func (m *Model) fitBackward(sw *sweep, n int, scaleOf func(f int) float64) {
	outDim := m.Cfg.Descriptor.OutDim()
	for t := range sw.fit {
		fb := &sw.fit[t]
		rows := fb.rows
		if len(rows) == 0 {
			continue
		}
		fb.dy = ensureLen(fb.dy, len(rows))
		for r, slot := range rows {
			fb.dy[r] = scaleOf(slot / n)
		}
		dx := m.Fit[t].BackwardBatch(fb.tape, fb.dy, len(rows))
		for r, slot := range rows {
			sw.dEdD[slot] = dx[r*outDim : (r+1)*outDim]
		}
	}
}

// embedBackward propagates the slots' dL/dD into the embedding-network
// parameter accumulators: one fused backward per embedding network
// spanning every active slot of the sweep embedForward last ran.
func (m *Model) embedBackward(sw *sweep) {
	m.Desc.BackwardEnvBatchParams(&sw.eb, sw.envList,
		func(vi int) []float64 { return sw.dEdD[sw.slots[vi]] })
}
