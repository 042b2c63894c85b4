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

// batchScratch is the reusable workspace of the whole-frame training
// path: per-slot descriptor environments (slot = frame·N + atom),
// per-species fitting batches spanning every frame of a worker batch,
// and the per-frame force-loss state.  Each data-parallel replica owns
// one for a whole training run, so the hot loop allocates nothing in
// steady state.
type batchScratch struct {
	// threads bounds forwardSlots' worker pool (wall time only).
	threads int

	nls  []neighbor.List   // per frame
	envs []*descriptor.Env // per slot
	// energies[slot] is the atomic energy from the base fitting forward.
	energies []float64
	// dEdD[slot] views the fitting net's input gradient for the slot's
	// row; valid until the next batched fitting pass reuses the buffers.
	dEdD [][]float64

	slots  []int // active-slot worklist for the forward pass
	rows   [][]int
	ftIn   [][]float64
	ftDy   [][]float64
	ftTape []*nn.BatchTape

	// eb and envList drive the fused embedding path: one embedding
	// forward/backward per network spanning every active slot.
	eb      descriptor.EnvBatch
	envList []*descriptor.Env

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
	slots := nVirtual * n
	if len(ws.nls) < nVirtual {
		ws.nls = append(ws.nls, make([]neighbor.List, nVirtual-len(ws.nls))...)
	}
	if len(ws.envs) < slots {
		ws.envs = append(ws.envs, make([]*descriptor.Env, slots-len(ws.envs))...)
	}
	ws.energies = ensureLen(ws.energies, slots)
	if len(ws.dEdD) < slots {
		ws.dEdD = append(ws.dEdD, make([][]float64, slots-len(ws.dEdD))...)
	}
	nS := m.Cfg.NumSpecies
	if len(ws.rows) < nS {
		ws.rows = append(ws.rows, make([][]int, nS-len(ws.rows))...)
		ws.ftIn = append(ws.ftIn, make([][]float64, nS-len(ws.ftIn))...)
		ws.ftDy = append(ws.ftDy, make([][]float64, nS-len(ws.ftDy))...)
		ws.ftTape = append(ws.ftTape, make([]*nn.BatchTape, nS-len(ws.ftTape))...)
	}
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
	ws.buildRows(types, B)
	m.fitForward(ws, true)

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
	m.fitInputGrad(ws)
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
	m.fitBackward(ws, n, func(f int) float64 { return 2 * pe * ws.dE[f] / float64(n*n) })
	m.embedBackward(ws)

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
	ws.buildRows(types, 2*B)
	m.fitForward(ws, false)
	m.fitBackward(ws, n, func(f int) float64 {
		if f < B {
			return ws.scaleF[f]
		}
		return -ws.scaleF[f-B]
	})
	m.embedBackward(ws)
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
	ws.buildRows(types, 1)
	m.fitForward(ws, true)
	m.fitBackward(ws, n, func(int) float64 { return scale })
	m.embedBackward(ws)
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
	ws.envList = ws.envList[:0]
	for _, slot := range ws.slots {
		ws.envList = append(ws.envList, ws.envs[slot])
	}
	m.Desc.ForwardEnvBatch(&ws.eb, ws.envList)
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

// buildRows groups the active slots by species in slot (frame-major,
// atom-ascending) order — the row layout of every batched fitting pass.
func (ws *batchScratch) buildRows(types []int, B int) {
	n := len(types)
	for t := range ws.rows {
		ws.rows[t] = ws.rows[t][:0]
	}
	for f := 0; f < B; f++ {
		if !ws.active[f] {
			continue
		}
		for i := 0; i < n; i++ {
			t := types[i]
			ws.rows[t] = append(ws.rows[t], f*n+i)
		}
	}
}

// fitForward runs one batched fitting forward per species over the
// current rows, recording tapes for the backward passes.  withEnergy
// additionally writes biased atomic energies into ws.energies.
func (m *Model) fitForward(ws *batchScratch, withEnergy bool) {
	outDim := m.Cfg.Descriptor.OutDim()
	for t, rows := range ws.rows {
		if len(rows) == 0 {
			continue
		}
		if ws.ftTape[t] == nil {
			ws.ftTape[t] = &nn.BatchTape{}
		}
		ws.ftIn[t] = ensureLen(ws.ftIn[t], len(rows)*outDim)
		in := ws.ftIn[t]
		for r, slot := range rows {
			copy(in[r*outDim:(r+1)*outDim], ws.envs[slot].Out())
		}
		out := m.Fit[t].ForwardBatch(ws.ftTape[t], in, len(rows))
		if withEnergy {
			for r, slot := range rows {
				ws.energies[slot] = out[r] + m.Bias[t]
			}
		}
	}
}

// fitInputGrad computes dE/dD for every row (dy = 1) without touching
// parameter accumulators, leaving per-slot views in ws.dEdD.  The views
// alias tape buffers: consume them before the next batched fitting pass.
func (m *Model) fitInputGrad(ws *batchScratch) {
	outDim := m.Cfg.Descriptor.OutDim()
	for t, rows := range ws.rows {
		if len(rows) == 0 {
			continue
		}
		ws.ftDy[t] = ensureLen(ws.ftDy[t], len(rows))
		dy := ws.ftDy[t]
		for r := range dy {
			dy[r] = 1
		}
		dx := m.Fit[t].InputGradBatch(ws.ftTape[t], dy, len(rows))
		for r, slot := range rows {
			ws.dEdD[slot] = dx[r*outDim : (r+1)*outDim]
		}
	}
}

// fitBackward runs one batched fitting backward per species with
// dy row = scaleOf(row's frame), accumulating parameter gradients
// directly into m.Fit and leaving scaled dL/dD views in ws.dEdD.
func (m *Model) fitBackward(ws *batchScratch, n int, scaleOf func(f int) float64) {
	outDim := m.Cfg.Descriptor.OutDim()
	for t, rows := range ws.rows {
		if len(rows) == 0 {
			continue
		}
		ws.ftDy[t] = ensureLen(ws.ftDy[t], len(rows))
		dy := ws.ftDy[t]
		for r, slot := range rows {
			dy[r] = scaleOf(slot / n)
		}
		dx := m.Fit[t].BackwardBatch(ws.ftTape[t], dy, len(rows))
		for r, slot := range rows {
			ws.dEdD[slot] = dx[r*outDim : (r+1)*outDim]
		}
	}
}

// embedBackward propagates the slots' dL/dD into the embedding-network
// parameter accumulators: one fused backward per embedding network
// spanning every active slot of the sweep forwardSlots last ran.
func (m *Model) embedBackward(ws *batchScratch) {
	m.Desc.BackwardEnvBatchParams(&ws.eb, ws.envList,
		func(vi int) []float64 { return ws.dEdD[ws.slots[vi]] })
}
