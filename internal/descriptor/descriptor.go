package descriptor

import (
	"fmt"
	"math"
	"sync"

	"repro/internal/nn"
)

// Config parameterizes a DeepPot-SE descriptor.
type Config struct {
	// RCut is the hard radial cutoff in Å (gene rcut in the paper).
	RCut float64
	// RCutSmth is the smoothing onset in Å (gene rcut_smth).
	RCutSmth float64
	// EmbeddingSizes are the embedding-network hidden sizes; the paper
	// fixes {25, 50, 100} (§2.1.2).  The last size is the per-neighbour
	// feature width M1.
	EmbeddingSizes []int
	// AxisNeurons is M2, the number of embedding columns used for the
	// second factor of the descriptor matrix (DeePMD's axis_neuron).
	AxisNeurons int
	// Activation is the embedding-network activation (gene
	// desc_activ_func).
	Activation nn.Activation
	// NumSpecies is the number of atom types; one embedding net is built
	// per neighbour type, as in DeePMD.
	NumSpecies int
	// NeighborNorm is the fixed normalization constant standing in for
	// DeePMD's sel-size padding: environment sums are divided by it so the
	// descriptor scale is independent of the instantaneous neighbour
	// count.
	NeighborNorm float64
	// PairTypeEmbedding selects DeePMD's full embedding layout: one
	// network per (center type, neighbour type) pair instead of one per
	// neighbour type.  Costs NumSpecies× more parameters; the default
	// (false) shares embeddings across center types.
	PairTypeEmbedding bool
}

// Validate checks structural validity.
func (c *Config) Validate() error {
	if c.RCut <= 0 || c.RCutSmth < 0 || c.RCutSmth >= c.RCut {
		return fmt.Errorf("descriptor: need 0 <= rcut_smth < rcut, got %v, %v", c.RCutSmth, c.RCut)
	}
	if len(c.EmbeddingSizes) == 0 {
		return fmt.Errorf("descriptor: EmbeddingSizes empty")
	}
	for _, n := range c.EmbeddingSizes {
		if n <= 0 {
			return fmt.Errorf("descriptor: embedding size %d not positive", n)
		}
	}
	if c.AxisNeurons <= 0 || c.AxisNeurons > c.EmbeddingSizes[len(c.EmbeddingSizes)-1] {
		return fmt.Errorf("descriptor: AxisNeurons %d out of range", c.AxisNeurons)
	}
	if c.NumSpecies <= 0 {
		return fmt.Errorf("descriptor: NumSpecies must be positive")
	}
	return nil
}

// M1 returns the per-neighbour embedding width.
func (c *Config) M1() int { return c.EmbeddingSizes[len(c.EmbeddingSizes)-1] }

// OutDim returns the flattened descriptor dimension M1×M2 per atom.
func (c *Config) OutDim() int { return c.M1() * c.AxisNeurons }

// nets returns the number of embedding networks: one per neighbour type,
// or one per (center, neighbour) type pair.
func (c *Config) nets() int {
	if c.PairTypeEmbedding {
		return c.NumSpecies * c.NumSpecies
	}
	return c.NumSpecies
}

// Layers returns the embedding networks' rows of a model's layer table,
// net by net in index order.  Each net takes the scalar s(r), runs the
// hidden sizes with the chosen activation and ends in a linear M1-wide
// layer (DeePMD embeds with the nonlinearity on the output layer too; we
// keep the final layer linear for gradient simplicity — the hidden stack
// carries the nonlinearity).  c must be valid.
func (c *Config) Layers() []nn.Spec {
	net := nn.MLPSpecs(1, c.EmbeddingSizes[:len(c.EmbeddingSizes)-1], c.M1(), c.Activation)
	table := make([]nn.Spec, 0, c.nets()*len(net))
	for range c.nets() {
		table = append(table, net...)
	}
	return table
}

// Descriptor holds the embedding networks and evaluates per-atom
// DeepPot-SE feature vectors with exact coordinate gradients.
type Descriptor struct {
	Cfg    Config
	Switch SwitchFunc
	// Embed holds the embedding networks (scalar s(r) in, M1 features
	// out).  With shared embeddings there is one per neighbour type
	// (index = neighbour type); with PairTypeEmbedding there is one per
	// (center, neighbour) pair (index = center·NumSpecies + neighbour).
	Embed []*nn.MLP

	// envPool recycles Envs between Forward and Release so the
	// convenience API is allocation-free in steady state, like the
	// explicit ForwardEnv reuse path.
	envPool sync.Pool
}

// embedIndex selects the embedding network for a center/neighbour type
// pair.
func (d *Descriptor) embedIndex(centerType, neighborType int) int {
	if d.Cfg.PairTypeEmbedding {
		return centerType*d.Cfg.NumSpecies + neighborType
	}
	return neighborType
}

// New builds a descriptor whose embedding networks are layers, laid out
// as cfg.Layers() declares them.  cfg must be valid (Validate).
func New(cfg Config, layers []*nn.Dense) *Descriptor {
	if cfg.NeighborNorm <= 0 {
		cfg.NeighborNorm = 16
	}
	return &Descriptor{
		Cfg:    cfg,
		Switch: SwitchFunc{RMin: cfg.RCutSmth, RMax: cfg.RCut},
		Embed:  nn.Split(layers, cfg.nets()),
	}
}

// neighbor is one entry of an atom's environment.
type neighbor struct {
	j        int        // neighbour atom index
	embedIdx int        // embedding-network index for this pair
	bIdx     int        // index of the neighbour's netBatch in Env.batches
	bRow     int        // row of this neighbour in its batch matrices
	d        [3]float64 // minimum-image displacement from center to neighbour
	r        float64    // |d|
	s        float64    // s(r)
	ds       float64    // ds/dr
	g        []float64  // embedding output row, len M1 (batch-tape-owned)
	rhat     [4]float64 // environment row (s, s·dx/r, s·dy/r, s·dz/r)
	dr       [4]float64 // backward scratch: dL/dR̃ rows
}

// netBatch gathers every neighbour sharing one embedding network so the
// whole group runs through the net as a single ForwardBatch/BackwardBatch.
// Rows keep the neighbours' ascending scan order, so per-net gradient
// accumulation follows the neighbours in scan order.
type netBatch struct {
	net  int           // embedding-network index
	n    int           // active rows
	in   []float64     // n×1 inputs s(r)
	out  []float64     // n×M1 outputs (tape-owned view)
	dy   []float64     // n×M1 upstream gradients (backward scratch)
	ds   []float64     // n×1 input gradients (tape-owned view)
	tape *nn.BatchTape // reused across Forwards; all nets share one shape
}

// Env is the evaluated environment of one atom, retained for backprop.
// An Env is reusable: passing it back to ForwardEnv recycles every
// internal buffer (neighbor slots, embedding tapes, descriptor and
// backprop scratch), making steady-state evaluation allocation-free.
type Env struct {
	center int
	nbrs   []neighbor // slot pool; the first n entries are active
	n      int
	t1     []float64 // 4×M1 row-major: T1[a][m] = Σ_j R̃_j[a]·G_j[m] / norm
	out    []float64 // flattened descriptor, M1×M2

	// Per-net batches: batches[:nBatches] are active, one per embedding
	// net touched, in first-touch order.  embedBatch[net] is the batch
	// slot for a touched net.
	batches    []netBatch
	nBatches   int
	embedBatch []int

	// Backward scratch, reused across calls.
	dT1 []float64

	// Per-call bookkeeping: which embedding nets this environment touched
	// (first-touch order) and which atoms appear.
	embedTouched []bool
	embedNets    []int
	nbrAtoms     []int
}

// Out returns the descriptor vector (owned by the Env; do not mutate).
func (e *Env) Out() []float64 { return e.out }

// Center returns the center atom index of the last ForwardEnv call.
func (e *Env) Center() int { return e.center }

// NeighborAtoms returns the indices of the atoms in the environment, in
// ascending order.  The slice is Env-owned scratch.
func (e *Env) NeighborAtoms() []int { return e.nbrAtoms }

// Forward evaluates the descriptor of atom i in a configuration given by
// flat coordinates (atom-major xyz), per-atom types, and cubic box length
// (0 disables periodicity).  The returned Env supports Backward.  The Env
// comes from an internal pool; hand it back with Release once its
// outputs are no longer needed, after which repeated Forward/Release
// pairs allocate nothing.
//
//lint:hot
func (d *Descriptor) Forward(coord []float64, types []int, box float64, i int) *Env {
	env, _ := d.envPool.Get().(*Env)
	return d.ForwardEnv(env, coord, types, box, i, nil)
}

// Release returns an Env obtained from Forward to the descriptor's pool.
// The Env (including its Out slice) must not be used afterwards.
//
//lint:hot
func (d *Descriptor) Release(env *Env) {
	if env != nil {
		d.envPool.Put(env)
	}
}

// ForwardEnv is Forward with explicit scratch reuse and an optional
// candidate list.  env may be nil (a fresh one is allocated) or a
// previously returned Env whose buffers are recycled.  cand, when
// non-nil, restricts the neighbour scan to the given ascending candidate
// indices (typically from a neighbor.List built with a skin); distances
// are still measured against coord, so any candidate superset of the
// true neighbourhood yields results bit-identical to the full scan.
func (d *Descriptor) ForwardEnv(env *Env, coord []float64, types []int, box float64, i int, cand []int) *Env {
	env = d.ScanEnv(env, coord, types, box, i, cand)

	// Batched embedding: every neighbour sharing a net runs through it as
	// one ForwardBatch.  Row r of each batch is bit-identical to a one-row
	// pass of that neighbour, so everything downstream sees the same bits
	// in the same order.
	for bi := 0; bi < env.nBatches; bi++ {
		b := &env.batches[bi]
		if b.tape == nil {
			b.tape = &nn.BatchTape{}
		}
		b.out = d.Embed[b.net].ForwardBatch(b.tape, b.in, b.n)
	}
	d.finishEnv(env)
	return env
}

// ScanEnv runs only the neighbourhood scan of ForwardEnv: it fills the
// Env's neighbour slots and per-net input batches but does not evaluate
// the embedding networks or the descriptor tail.  The fused training
// path (ForwardEnvBatch) uses it to gather many environments into one
// embedding forward per network; after ScanEnv the Env is incomplete
// until that fused pass (or ForwardEnv) finishes it.
func (d *Descriptor) ScanEnv(env *Env, coord []float64, types []int, box float64, i int, cand []int) *Env {
	if env == nil {
		env = &Env{}
	}
	env.center = i
	env.n = 0
	if len(env.embedTouched) != len(d.Embed) {
		env.embedTouched = make([]bool, len(d.Embed))
		env.embedBatch = make([]int, len(d.Embed))
	}
	for _, e := range env.embedNets {
		env.embedTouched[e] = false
	}
	env.embedNets = env.embedNets[:0]
	env.nbrAtoms = env.nbrAtoms[:0]
	env.nBatches = 0

	rc2 := d.Cfg.RCut * d.Cfg.RCut
	consider := func(j int) {
		if j == i {
			return
		}
		var dd [3]float64
		r2 := 0.0
		for k := 0; k < 3; k++ {
			dk := coord[3*j+k] - coord[3*i+k]
			if box > 0 {
				dk -= box * math.Round(dk/box)
			}
			dd[k] = dk
			r2 += dk * dk
		}
		if r2 >= rc2 || r2 == 0 {
			return
		}
		if env.n == len(env.nbrs) {
			env.nbrs = append(env.nbrs, neighbor{})
		}
		nb := &env.nbrs[env.n]
		env.n++
		r := math.Sqrt(r2)
		s, ds := d.Switch.EvalDeriv(r)
		eIdx := d.embedIndex(types[i], types[j])
		nb.j, nb.embedIdx, nb.d, nb.r, nb.s, nb.ds = j, eIdx, dd, r, s, ds
		nb.rhat[0] = s
		for k := 0; k < 3; k++ {
			nb.rhat[k+1] = s * dd[k] / r
		}
		if !env.embedTouched[eIdx] {
			env.embedTouched[eIdx] = true
			env.embedNets = append(env.embedNets, eIdx)
			if env.nBatches == len(env.batches) {
				env.batches = append(env.batches, netBatch{})
			}
			b := &env.batches[env.nBatches]
			b.net, b.n = eIdx, 0
			b.in = b.in[:0]
			env.embedBatch[eIdx] = env.nBatches
			env.nBatches++
		}
		b := &env.batches[env.embedBatch[eIdx]]
		nb.bIdx, nb.bRow = env.embedBatch[eIdx], b.n
		b.in = append(b.in, s)
		b.n++
		env.nbrAtoms = append(env.nbrAtoms, j)
	}
	if cand != nil {
		for _, j := range cand {
			consider(j)
		}
	} else {
		for j := range types {
			consider(j)
		}
	}
	return env
}

// finishEnv computes the descriptor tail — per-neighbour G views, the T1
// contraction and the output matrix — once the embedding outputs are in
// place (per-env tapes from ForwardEnv or fused views from
// ForwardEnvBatch).
func (d *Descriptor) finishEnv(env *Env) {
	m1 := d.Cfg.M1()
	for ni := 0; ni < env.n; ni++ {
		nb := &env.nbrs[ni]
		nb.g = env.batches[nb.bIdx].out[nb.bRow*m1 : (nb.bRow+1)*m1]
	}

	// T1[a][m] = Σ_j R̃_j[a] G_j[m] / norm.
	env.t1 = ensureZeroed(env.t1, 4*m1)
	t1 := env.t1
	inv := 1 / d.Cfg.NeighborNorm
	for ni := 0; ni < env.n; ni++ {
		nb := &env.nbrs[ni]
		for a := 0; a < 4; a++ {
			ra := nb.rhat[a] * inv
			row := t1[a*m1 : (a+1)*m1]
			for m, gm := range nb.g {
				row[m] += ra * gm
			}
		}
	}

	// D[m1][m2] = Σ_a T1[a][m1]·T1[a][m2],  m2 < M2.
	m2n := d.Cfg.AxisNeurons
	if cap(env.out) < m1*m2n {
		env.out = make([]float64, m1*m2n)
	}
	env.out = env.out[:m1*m2n]
	out := env.out
	for mi := 0; mi < m1; mi++ {
		for mj := 0; mj < m2n; mj++ {
			sum := 0.0
			for a := 0; a < 4; a++ {
				sum += t1[a*m1+mi] * t1[a*m1+mj]
			}
			out[mi*m2n+mj] = sum
		}
	}
}

// ensureZeroed returns buf resized to n with every element zero, reusing
// the backing array when possible.
func ensureZeroed(buf []float64, n int) []float64 {
	if cap(buf) < n {
		return make([]float64, n)
	}
	buf = buf[:n]
	for i := range buf {
		buf[i] = 0
	}
	return buf
}

// Backward propagates dL/dD (flattened M1×M2) through the descriptor of
// an Env evaluated by ForwardEnv, adding coordinate gradients into dcoord
// (flat, same layout as coord).  It is the inference backward (forces):
// parameter accumulators are untouched; training accumulates them with
// BackwardEnvBatchParams.
//
//lint:hot
func (d *Descriptor) Backward(env *Env, dOut []float64, dcoord []float64) {
	d.computeDT1(env, dOut)

	// Phase 1: per-neighbour upstream gradients, in neighbour scan order.
	// Each neighbour's dL/dG row lands in its net batch's dy matrix; the
	// R̃-row gradients are stashed on the neighbour for phase 3.
	m1 := d.Cfg.M1()
	for bi := 0; bi < env.nBatches; bi++ {
		b := &env.batches[bi]
		b.dy = ensureZeroed(b.dy, b.n*m1)
	}
	d.scatterUpstream(env, true)

	// Phase 2: through the embedding networks to their scalar inputs, one
	// batched input-gradient pass per net.
	for bi := 0; bi < env.nBatches; bi++ {
		b := &env.batches[bi]
		b.ds = d.Embed[b.net].InputGradBatch(b.tape, b.dy, b.n)
	}

	d.geometryChain(env, dcoord)
}

// computeDT1 fills env.dT1 with dL/dT1[a][m] from D = T1ᵀ·T1[:, :M2] —
// the first phase of every descriptor backward.
func (d *Descriptor) computeDT1(env *Env, dOut []float64) {
	m1 := d.Cfg.M1()
	m2n := d.Cfg.AxisNeurons
	t1 := env.t1
	env.dT1 = ensureZeroed(env.dT1, 4*m1)
	dT1 := env.dT1
	for a := 0; a < 4; a++ {
		ta := t1[a*m1 : (a+1)*m1]
		da := dT1[a*m1 : (a+1)*m1]
		for mi := 0; mi < m1; mi++ {
			g := 0.0
			for mj := 0; mj < m2n; mj++ {
				g += dOut[mi*m2n+mj] * ta[mj]
			}
			da[mi] += g
		}
		for mj := 0; mj < m2n; mj++ {
			g := 0.0
			for mi := 0; mi < m1; mi++ {
				g += dOut[mi*m2n+mj] * ta[mi]
			}
			da[mj] += g
		}
	}
}

// scatterUpstream spreads env.dT1 onto each neighbour's dL/dG row (into
// its batch's pre-zeroed dy matrix), in neighbour scan order.  With
// stashDR it additionally stashes the dL/dR̃ rows the geometry chain rule
// consumes; the arithmetic of the dG scatter is identical either way.
func (d *Descriptor) scatterUpstream(env *Env, stashDR bool) {
	m1 := d.Cfg.M1()
	dT1 := env.dT1
	inv := 1 / d.Cfg.NeighborNorm
	for ni := 0; ni < env.n; ni++ {
		nb := &env.nbrs[ni]
		// dL/dG_j[m] = Σ_a dT1[a][m]·R̃_j[a]/norm
		dg := env.batches[nb.bIdx].dy[nb.bRow*m1 : (nb.bRow+1)*m1]
		for a := 0; a < 4; a++ {
			ra := nb.rhat[a] * inv
			da := dT1[a*m1 : (a+1)*m1]
			if stashDR {
				// dL/dR̃_j[a] = Σ_m dT1[a][m]·G_j[m]/norm
				sum := 0.0
				for m := 0; m < m1; m++ {
					dg[m] += da[m] * ra
					sum += da[m] * nb.g[m]
				}
				nb.dr[a] = sum * inv
			} else {
				for m := 0; m < m1; m++ {
					dg[m] += da[m] * ra
				}
			}
		}
	}
}

// geometryChain applies the chain rule from the stashed dL/dR̃ rows and
// the embedding input gradients (batch ds views) to the coordinates —
// phase 3 of the full backward, in neighbour scan order.
func (d *Descriptor) geometryChain(env *Env, dcoord []float64) {
	for ni := 0; ni < env.n; ni++ {
		nb := &env.nbrs[ni]
		dsEmbed := env.batches[nb.bIdx].ds[nb.bRow]

		// Total dL/ds: embedding path + R̃ rows.
		dLds := dsEmbed + nb.dr[0]
		for k := 0; k < 3; k++ {
			dLds += nb.dr[k+1] * nb.d[k] / nb.r
		}

		// dL/dd_k: s-dependence via ds/dr·d_k/r plus the direct d
		// dependence of rows 1..3: R̃_k = s·d_k/r.
		var dd [3]float64
		for k := 0; k < 3; k++ {
			dd[k] = dLds * nb.ds * nb.d[k] / nb.r
			for l := 0; l < 3; l++ {
				// ∂(d_l/r)/∂d_k = δ_kl/r − d_k·d_l/r³
				delta := 0.0
				if k == l {
					delta = 1
				}
				dd[k] += nb.dr[l+1] * nb.s * (delta/nb.r - nb.d[k]*nb.d[l]/(nb.r*nb.r*nb.r))
			}
		}
		for k := 0; k < 3; k++ {
			dcoord[3*nb.j+k] += dd[k]
			dcoord[3*env.center+k] -= dd[k]
		}
	}
}

// ParamCount returns the total embedding parameter count.
func (d *Descriptor) ParamCount() int {
	n := 0
	for _, m := range d.Embed {
		n += m.ParamCount()
	}
	return n
}
