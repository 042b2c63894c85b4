package descriptor

import "repro/internal/nn"

// EnvBatch fuses the embedding-network compute of many environments —
// every atom of a whole worker batch of frames in training, one atom
// tile in inference, a single environment in Forward — into one forward
// and one backward per network, replacing many tiny per-atom GEMMs with
// a handful of tall ones.  It is the only way rows reach the embedding
// networks.  Rows gather in environment order (each environment's rows
// contiguous, in its own neighbour scan order), so results are
// deterministic for any thread count; parameter gradients accumulate
// per fused batch, rows ascending.
//
// Lifecycle per sweep: ScanEnv every environment, ForwardEnvBatch once,
// then any of BackwardEnvBatchGeometry / BackwardEnvBatchParams.  The
// fused views handed to each Env (embedding outputs, upstream and input
// gradients) stay valid until the next ForwardEnvBatch on the same
// EnvBatch.  Not safe for concurrent use; all buffers are recycled
// across sweeps, so steady-state use allocates nothing.
type EnvBatch struct {
	nets []fusedNet // per embedding net
}

// fusedNet is one embedding network's fused batch.
type fusedNet struct {
	rows int           // fused row count
	in   []float64     // rows×1 embedding inputs
	dy   []float64     // rows×M1 upstream gradients
	out  []float64     // tape-owned outputs
	ds   []float64     // tape-owned input gradients
	tape *nn.BatchTape // reused across sweeps
}

// ForwardEnvBatch finishes a set of scanned environments (ScanEnv) with
// one fused embedding forward per touched network, then computes each
// environment's descriptor tail.  Environments keep views into the
// fused outputs, which the backwards below consume.  Row r of a fused
// batch is bit-identical to a one-row pass of its neighbour, so an
// environment's results do not depend on which others share its batch.
func (d *Descriptor) ForwardEnvBatch(eb *EnvBatch, envs []*Env) {
	m1 := d.Cfg.M1()
	if len(eb.nets) < len(d.Embed) {
		eb.nets = append(eb.nets, make([]fusedNet, len(d.Embed)-len(eb.nets))...)
	}
	for e := range d.Embed {
		fn := &eb.nets[e]
		fn.rows = 0
		fn.in = fn.in[:0]
	}
	for _, env := range envs {
		for bi := 0; bi < env.nBatches; bi++ {
			b := &env.batches[bi]
			fn := &eb.nets[b.net]
			b.off = fn.rows
			fn.in = append(fn.in, b.in[:b.n]...)
			fn.rows += b.n
		}
	}
	for e := range d.Embed {
		fn := &eb.nets[e]
		if fn.rows == 0 {
			continue
		}
		if fn.tape == nil {
			fn.tape = &nn.BatchTape{}
		}
		fn.out = d.Embed[e].ForwardBatch(fn.tape, fn.in, fn.rows)
	}
	for _, env := range envs {
		for bi := 0; bi < env.nBatches; bi++ {
			b := &env.batches[bi]
			b.out = eb.nets[b.net].out[b.off*m1 : (b.off+b.n)*m1]
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
		fn := &eb.nets[e]
		if fn.rows > 0 {
			fn.dy = ensureZeroed(fn.dy, fn.rows*m1)
		}
	}
	for _, env := range envs {
		for bi := 0; bi < env.nBatches; bi++ {
			b := &env.batches[bi]
			b.dy = eb.nets[b.net].dy[b.off*m1 : (b.off+b.n)*m1]
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
		fn := &eb.nets[e]
		if fn.rows == 0 {
			continue
		}
		fn.ds = d.Embed[e].InputGradBatch(fn.tape, fn.dy, fn.rows)
	}
	for vi, env := range envs {
		for bi := 0; bi < env.nBatches; bi++ {
			b := &env.batches[bi]
			b.ds = eb.nets[b.net].ds[b.off : b.off+b.n]
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
		fn := &eb.nets[e]
		if fn.rows == 0 {
			continue
		}
		d.Embed[e].BackwardBatch(fn.tape, fn.dy, fn.rows)
	}
}
