package descriptor

import "repro/internal/nn"

// EnvBatch fuses the embedding-network compute of many environments —
// typically every atom of a whole worker batch of frames — into one
// forward and one backward per network, replacing hundreds of tiny
// per-atom GEMMs with a handful of tall ones.  Rows gather in
// environment order (each environment's rows contiguous, in its own
// neighbour scan order), so results are deterministic for any thread
// count; parameter gradients accumulate per fused batch, rows ascending.
//
// Lifecycle per sweep: ScanEnv every environment, ForwardEnvBatch once,
// then any of BackwardEnvBatchGeometry / BackwardEnvBatchParams.  The
// fused views handed to each Env (embedding outputs, upstream and input
// gradients) stay valid until the next ForwardEnvBatch on the same
// EnvBatch.  Not safe for concurrent use; all buffers are recycled
// across sweeps, so steady-state use allocates nothing.
type EnvBatch struct {
	rows  []int       // per net: fused row count
	in    [][]float64 // per net: rows×1 embedding inputs
	dy    [][]float64 // per net: rows×M1 upstream gradients
	out   [][]float64 // per net: tape-owned outputs
	ds    [][]float64 // per net: tape-owned input gradients
	tapes []*nn.BatchTape
	offs  [][]int // offs[vi][bi]: row offset of envs[vi].batches[bi]
}

func (eb *EnvBatch) ensure(nNets, nEnvs int) {
	if grow := nNets - len(eb.rows); grow > 0 {
		eb.rows = append(eb.rows, make([]int, grow)...)
		eb.in = append(eb.in, make([][]float64, grow)...)
		eb.dy = append(eb.dy, make([][]float64, grow)...)
		eb.out = append(eb.out, make([][]float64, grow)...)
		eb.ds = append(eb.ds, make([][]float64, grow)...)
		eb.tapes = append(eb.tapes, make([]*nn.BatchTape, grow)...)
	}
	if grow := nEnvs - len(eb.offs); grow > 0 {
		eb.offs = append(eb.offs, make([][]int, grow)...)
	}
}

// ForwardEnvBatch finishes a set of scanned environments (ScanEnv) with
// one fused embedding forward per touched network, then computes each
// environment's descriptor tail.  Environments keep views into the
// fused outputs; they support the fused backwards below but NOT the
// per-env Backward (their per-env tapes are never populated on this
// path).
func (d *Descriptor) ForwardEnvBatch(eb *EnvBatch, envs []*Env) {
	m1 := d.Cfg.M1()
	eb.ensure(len(d.Embed), len(envs))
	for e := range d.Embed {
		eb.rows[e] = 0
		eb.in[e] = eb.in[e][:0]
	}
	for vi, env := range envs {
		offs := eb.offs[vi][:0]
		for bi := 0; bi < env.nBatches; bi++ {
			b := &env.batches[bi]
			offs = append(offs, eb.rows[b.net])
			eb.in[b.net] = append(eb.in[b.net], b.in[:b.n]...)
			eb.rows[b.net] += b.n
		}
		eb.offs[vi] = offs
	}
	for e := range d.Embed {
		if eb.rows[e] == 0 {
			continue
		}
		if eb.tapes[e] == nil {
			eb.tapes[e] = &nn.BatchTape{}
		}
		eb.out[e] = d.Embed[e].ForwardBatch(eb.tapes[e], eb.in[e], eb.rows[e])
	}
	for vi, env := range envs {
		for bi := 0; bi < env.nBatches; bi++ {
			b := &env.batches[bi]
			off := eb.offs[vi][bi]
			b.out = eb.out[b.net][off*m1 : (off+b.n)*m1]
		}
		d.finishEnv(env)
	}
}

// stageDy zeroes the fused upstream matrices and points every
// environment's batch dy at its row range, so the per-env scatter writes
// land directly in the fused layout.
func (d *Descriptor) stageDy(eb *EnvBatch, envs []*Env) {
	m1 := d.Cfg.M1()
	for e := range d.Embed {
		if eb.rows[e] > 0 {
			eb.dy[e] = ensureZeroed(eb.dy[e], eb.rows[e]*m1)
		}
	}
	for vi, env := range envs {
		for bi := 0; bi < env.nBatches; bi++ {
			b := &env.batches[bi]
			off := eb.offs[vi][bi]
			b.dy = eb.dy[b.net][off*m1 : (off+b.n)*m1]
		}
	}
}

// BackwardEnvBatchGeometry computes coordinate gradients for every
// environment with one fused input-gradient pass per network, leaving
// parameter accumulators untouched.  dOut(vi) is envs[vi]'s upstream
// dL/dD; dcoord(vi) the flat gradient target of its frame (gradients
// add).  The batch tapes survive for a subsequent
// BackwardEnvBatchParams on the same sweep.
func (d *Descriptor) BackwardEnvBatchGeometry(eb *EnvBatch, envs []*Env, dOut func(vi int) []float64, dcoord func(vi int) []float64) {
	d.stageDy(eb, envs)
	for vi, env := range envs {
		d.computeDT1(env, dOut(vi))
		d.scatterUpstream(env, true)
	}
	for e := range d.Embed {
		if eb.rows[e] == 0 {
			continue
		}
		eb.ds[e] = d.Embed[e].InputGradBatch(eb.tapes[e], eb.dy[e], eb.rows[e])
	}
	for vi, env := range envs {
		for bi := 0; bi < env.nBatches; bi++ {
			b := &env.batches[bi]
			off := eb.offs[vi][bi]
			b.ds = eb.ds[b.net][off : off+b.n]
		}
		d.geometryChain(env, dcoord(vi))
	}
}

// BackwardEnvBatchParams accumulates embedding parameter gradients for
// every environment with one fused backward per network.  dOut(vi) is
// envs[vi]'s upstream dL/dD.
func (d *Descriptor) BackwardEnvBatchParams(eb *EnvBatch, envs []*Env, dOut func(vi int) []float64) {
	d.stageDy(eb, envs)
	for vi, env := range envs {
		d.computeDT1(env, dOut(vi))
		d.scatterUpstream(env, false)
	}
	for e := range d.Embed {
		if eb.rows[e] == 0 {
			continue
		}
		d.Embed[e].BackwardBatch(eb.tapes[e], eb.dy[e], eb.rows[e])
	}
}
