package deepmd

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"

	"repro/internal/dataset"
	"repro/internal/ddp"
	"repro/internal/nn"
)

// TrainConfig parameterizes a training run; field names follow the
// corresponding DeePMD input.json entries where one exists.
type TrainConfig struct {
	// Steps is numb_steps; the paper trains every candidate for 40 000.
	Steps int
	// BatchSize is frames per worker per step.
	BatchSize int
	// StartLR and StopLR bound the exponential learning-rate decay (genes
	// start_lr and stop_lr).
	StartLR, StopLR float64
	// ScaleByWorker is "linear", "sqrt" or "none" (gene scale_by_worker).
	ScaleByWorker string
	// Workers is the simulated data-parallel width (6 GPUs per Summit
	// node in the paper): every step averages Workers gradients, each on
	// its own BatchSize frames.  How many of them are computed at once is
	// Threads' business, not Workers'.
	Workers int
	// Prefactors weight the loss; zero value means PaperPrefactors.
	Prefactors LossPrefactors
	// DispFreq is how often (in steps) validation errors are appended to
	// the learning curve (disp_freq).
	DispFreq int
	// ValFrames caps validation frames per evaluation (0 = all).
	ValFrames int
	// Threads bounds the cores a training uses.  min(Threads, Workers)
	// replicas of the model compute a step's worker gradients
	// concurrently, the leftover Threads / replicas bounds the
	// neighbourhood-scan pool inside each replica, and the validation
	// evaluations spread frames over all Threads.  0 means GOMAXPROCS.  Training output is
	// bit-identical for every value — a worker's gradient does not depend
	// on which replica computes it, and gradients are reduced in a fixed
	// order — so Threads trades wall time (and, per extra replica, a
	// workspace) only.
	Threads int
	// Seed drives batch sampling.
	Seed int64
}

// Validate checks the configuration.
func (c *TrainConfig) Validate() error {
	if c.Steps <= 0 {
		return errors.New("deepmd: Steps must be positive")
	}
	if c.StartLR <= 0 || c.StopLR <= 0 || c.StopLR > c.StartLR {
		return fmt.Errorf("deepmd: need 0 < stop_lr <= start_lr, got %g, %g", c.StopLR, c.StartLR)
	}
	if c.BatchSize <= 0 {
		c.BatchSize = 1
	}
	if c.Workers <= 0 {
		c.Workers = 1
	}
	return nil
}

// LCurveRecord is one line of the learning curve.
type LCurveRecord struct {
	Step     int
	RmseEVal float64 // eV/atom
	RmseETrn float64
	RmseFVal float64 // eV/Å
	RmseFTrn float64
	LR       float64
}

// TrainResult summarizes a completed training.
type TrainResult struct {
	LCurve []LCurveRecord
	// FinalEnergyRMSE and FinalForceRMSE are the last validation errors —
	// exactly what the EA reads from lcurve.out as fitness (§2.2.4).
	FinalEnergyRMSE float64
	FinalForceRMSE  float64
	StepsRun        int
}

// ErrDiverged is returned when the loss becomes NaN/Inf — the analogue of
// the hyperparameter combinations the paper observed crashing training.
var ErrDiverged = errors.New("deepmd: training diverged (non-finite loss)")

// Train fits the model to the in-memory training set; see TrainSource.
func Train(ctx context.Context, m *Model, train, val *dataset.Dataset, cfg TrainConfig, lcurve io.Writer) (*TrainResult, error) {
	return TrainSource(ctx, m, train, val, cfg, lcurve)
}

// TrainSource fits the model to the training source, evaluating on the
// validation source every DispFreq steps and appending lcurve.out lines
// to lcurve (if non-nil).  The context cancels long runs, standing in
// for the paper's two-hour subprocess limit.
//
// Sources are sampled by index only, so an out-of-core stream.Store and
// an in-memory dataset over the same system directory produce
// bit-identical training.  Each step draws its own frame indices when it
// starts.
//
// Cancellation is observed before each worker's gradient is started —
// within one worker's gradient, not one step — and always surfaces as
// ctx.Err().  No goroutine TrainSource starts outlives it.
func TrainSource(ctx context.Context, m *Model, train, val FrameSource, cfg TrainConfig, lcurve io.Writer) (*TrainResult, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if train.Len() == 0 {
		return nil, errors.New("deepmd: empty training set")
	}
	if cfg.Prefactors == (LossPrefactors{}) {
		cfg.Prefactors = PaperPrefactors()
	}
	if cfg.DispFreq <= 0 {
		cfg.DispFreq = 100
	}
	// Step of the central-difference directional derivative in the
	// force-loss gradient, in Å.
	const h = 1e-4

	rng := rand.New(rand.NewSource(cfg.Seed))
	initBias(m, train)
	m.SetThreads(cfg.Threads)
	types := train.AtomTypes()

	sched := nn.ExpDecaySchedule{Start: cfg.StartLR, Stop: cfg.StopLR, TotalSteps: cfg.Steps}
	opt := &adamUpdate{opt: nn.NewAdam(), param: m.param, grad: m.grad}

	// The step's Workers gradients are computed on min(Threads, Workers)
	// replicas, as the paper's node computes them on its six GPUs.
	reps := make([]*replica, min(m.threads, cfg.Workers))
	for r := range reps {
		reps[r] = m.newReplica(m.threads/len(reps), cfg.BatchSize)
	}
	group := ddp.NewGroup(cfg.Workers, len(reps), len(m.param))

	// idx holds the step's frame indices: worker-major, batch-minor, the
	// only draws rng makes.
	idx := make([]int, cfg.Workers*cfg.BatchSize)

	// How many training frames each rmse_*_trn evaluation sees: ValFrames
	// capped to the training set, where 0 (like EvalErrors' contract)
	// means all frames.
	trnFrames := cfg.ValFrames
	if trnFrames <= 0 || trnFrames > train.Len() {
		trnFrames = train.Len()
	}

	res := &TrainResult{}
	writeHeader(lcurve)

	for step := 0; step < cfg.Steps; step++ {
		baseLR := sched.At(step)
		lr := nn.WorkerScale(cfg.ScaleByWorker, baseLR, cfg.Workers)
		pe, pf := cfg.Prefactors.At(baseLR / cfg.StartLR)
		for k := range idx {
			idx[k] = rng.Intn(train.Len())
		}

		// Each simulated worker computes the gradient of its own random
		// batch on whichever replica is free, straight into its buffer in
		// the group; the mean lands in the model's gradient arena, and
		// Adam updates each chunk of the parameters as its mean is
		// written.  The replicas share the parameters and nothing else,
		// so the gradient of worker w is the same bits on any of them.
		opt.lr = lr
		err := group.Step(ctx, func(r, w int, grad []float64) error {
			rep := reps[r]
			nn.Bind(rep.m.layers, nil, grad)
			clear(grad)
			for b, fi := range idx[w*cfg.BatchSize : (w+1)*cfg.BatchSize] {
				fr, err := train.Frame(fi)
				if err != nil {
					return err
				}
				rep.batch[b] = fr
			}
			if err := rep.m.accumulateBatchGrad(&rep.ws, types, rep.batch, pe, pf, h); err != nil {
				return err
			}
			if cfg.BatchSize > 1 {
				s := 1 / float64(cfg.BatchSize)
				for i := range grad {
					grad[i] *= s
				}
			}
			return nil
		}, m.grad, opt)
		if err != nil {
			return res, err
		}
		res.StepsRun = step + 1

		if (step+1)%cfg.DispFreq == 0 || step == cfg.Steps-1 {
			rec := LCurveRecord{Step: step + 1, LR: lr}
			if rec.RmseEVal, rec.RmseFVal, err = EvalErrorsSource(m, val, cfg.ValFrames); err != nil {
				return res, err
			}
			if rec.RmseETrn, rec.RmseFTrn, err = EvalErrorsSource(m, train, trnFrames); err != nil {
				return res, err
			}
			res.LCurve = append(res.LCurve, rec)
			writeRecord(lcurve, rec)
			if !finite(rec.RmseEVal) || !finite(rec.RmseFVal) {
				return res, ErrDiverged
			}
		}
	}
	if n := len(res.LCurve); n > 0 {
		res.FinalEnergyRMSE = res.LCurve[n-1].RmseEVal
		res.FinalForceRMSE = res.LCurve[n-1].RmseFVal
	}
	return res, nil
}

// replica is one data-parallel copy of the model inside TrainSource: a
// second set of layers bound to the model's parameter arena, sharing its
// Bias, with no gradient storage of its own — each worker binds them to
// its own buffer — and the workspace one worker's gradient needs.  The
// view serves accumulateBatchGrad only: it has no arenas and no inference
// scratch pool.
type replica struct {
	m     *Model
	ws    batchScratch
	batch []*dataset.Frame
}

// newReplica builds a replica whose forwardSlots pool is bounded by
// threads.  The model's own gradient views never leave its arena; only
// the layer structs and the workspace are per replica.
func (m *Model) newReplica(threads, batchSize int) *replica {
	s := assemble(m.Cfg, nn.Layers(layerTable(m.Cfg), m.param, nil))
	s.Bias = m.Bias
	return &replica{m: s, ws: batchScratch{threads: threads}, batch: make([]*dataset.Frame, batchSize)}
}

// adamUpdate is the Adam step ddp.Group.Step applies to the model's
// arenas chunk by chunk, as the mean gradient is reduced; lr is the
// current step's learning rate.
type adamUpdate struct {
	opt         *nn.Adam
	param, grad []float64
	lr          float64
}

func (u *adamUpdate) Begin()           { u.opt.Begin(len(u.param), u.lr) }
func (u *adamUpdate) Apply(lo, hi int) { u.opt.Update(u.param, u.grad, lo, hi) }

// initBias sets the per-species energy bias so the untrained network
// predicts the training-set mean energy, the same trick DeePMD uses to
// avoid learning a huge constant.
func initBias(m *Model, src FrameSource) {
	natoms := len(src.AtomTypes())
	if src.Len() == 0 || natoms == 0 {
		// An empty source has no frames or no atoms to average over;
		// dividing by the atom count would poison the biases.
		return
	}
	perAtom := src.MeanEnergy() / float64(natoms)
	for t := range m.Bias {
		m.Bias[t] = perAtom
	}
}

func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }
