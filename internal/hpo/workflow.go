package hpo

import (
	"context"
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/deepmd"
	"repro/internal/ea"
	"repro/internal/uuid"
)

// Trainer runs one DeePMD training given a rendered input.json path and a
// run directory, producing lcurve.out in that directory.  It is the slot
// the paper fills with a subprocess call to `dp` (§2.2.4 item 4a); here it
// is filled by the in-process deepmd trainer or, in tests, by fakes.
type Trainer interface {
	Train(ctx context.Context, inputPath, runDir string) error
}

// TrainerFunc adapts a function to the Trainer interface.
type TrainerFunc func(ctx context.Context, inputPath, runDir string) error

// Train implements Trainer.
func (f TrainerFunc) Train(ctx context.Context, inputPath, runDir string) error {
	return f(ctx, inputPath, runDir)
}

// WorkflowEvaluator is the paper's §2.2.4 evaluation workflow as an
// ea.Evaluator:
//
//  1. decode the seven-gene genome (floor-modulus for categoricals),
//  2. create a UUID-named run directory,
//  3. substitute the decoded values into the JSON input template and
//     write input.json there,
//  4. run the trainer and read the last rmse_e_val / rmse_f_val from
//     lcurve.out as the two-element fitness.
//
// Any error propagates out and the EA layer assigns MAXINT fitness.
type WorkflowEvaluator struct {
	// WorkDir is where per-individual UUID directories are created.
	WorkDir string
	// Template is the input.json template ("" = DefaultInputTemplate).
	Template string
	// Steps, DispFreq and Seed fill the non-tuned template slots.
	Steps    int
	DispFreq int
	Seed     int64
	// TrainDir and ValDir are the dataset paths substituted into the
	// template.
	TrainDir, ValDir string
	// Trainer runs the training.
	Trainer Trainer
	// Keep, if false, removes each run directory after the fitness has
	// been extracted.
	Keep bool
}

// Evaluate implements ea.Evaluator.
func (w *WorkflowEvaluator) Evaluate(ctx context.Context, g ea.Genome) (ea.Fitness, error) {
	h, err := Decode(g)
	if err != nil {
		return nil, err
	}
	runDir := filepath.Join(w.WorkDir, uuid.New().String())
	if err := os.MkdirAll(runDir, 0o755); err != nil {
		return nil, fmt.Errorf("hpo: creating run dir: %w", err)
	}
	if !w.Keep {
		defer os.RemoveAll(runDir)
	}
	vars := TemplateVars(h, w.Steps, w.DispFreq, w.Seed, w.TrainDir, w.ValDir)
	inputPath, err := WriteInput(runDir, w.Template, vars)
	if err != nil {
		return nil, err
	}
	if err := w.Trainer.Train(ctx, inputPath, runDir); err != nil {
		return nil, fmt.Errorf("hpo: training failed: %w", err)
	}
	rmseE, rmseF, err := deepmd.FinalLosses(filepath.Join(runDir, "lcurve.out"))
	if err != nil {
		return nil, err
	}
	// Fitness order is (energy loss, force loss), matching the paper's
	// two-element Numpy fitness array.
	return ea.Fitness{rmseE, rmseF}, nil
}

// RealTrainer trains an actual deepmd model in-process: the substitution
// for invoking the `dp` executable.  Frame sources are opened once and
// shared across evaluations; they may be in-memory datasets or
// out-of-core stream stores — training is bit-identical either way.
type RealTrainer struct {
	Train deepmd.FrameSource
	Val   deepmd.FrameSource
	// Workers is the simulated data-parallel width (6 in the paper).
	Workers int
	// StepsOverride, if positive, truncates numb_steps (reduced-scale
	// campaigns).
	StepsOverride int
	// ValFrames caps validation frames per lcurve evaluation.
	ValFrames int
}

// TrainRun implements the Trainer interface.
func (rt *RealTrainer) TrainRun(ctx context.Context, inputPath, runDir string) error {
	in, err := deepmd.ParseInputFile(inputPath)
	if err != nil {
		return err
	}
	if err := in.Validate(); err != nil {
		return err
	}
	mc, err := in.ModelConfig()
	if err != nil {
		return err
	}
	// Keep the descriptor's neighbour normalization consistent with the
	// dataset's typical coordination at this cutoff.
	mc.Descriptor.NeighborNorm = estimateNeighbors(rt.Train, mc.Descriptor.RCut)

	workers := rt.Workers
	if workers <= 0 {
		workers = 6
	}
	tc := in.TrainConfig(workers)
	if rt.StepsOverride > 0 && tc.Steps > rt.StepsOverride {
		tc.Steps = rt.StepsOverride
	}
	tc.ValFrames = rt.ValFrames

	rngSeed := tc.Seed
	model, err := deepmd.NewModel(newSeededRand(rngSeed), mc)
	if err != nil {
		return err
	}
	lcurve, err := os.Create(filepath.Join(runDir, "lcurve.out"))
	if err != nil {
		return err
	}
	defer lcurve.Close()
	_, err = deepmd.TrainSource(ctx, model, rt.Train, rt.Val, tc, lcurve)
	return err
}

// estimateNeighbors returns the average neighbour count within rcut for
// the first frame of the source, used as the descriptor normalization.
func estimateNeighbors(src deepmd.FrameSource, rcut float64) float64 {
	if src == nil || src.Len() == 0 {
		return 16
	}
	f, err := src.Frame(0)
	if err != nil {
		return 16
	}
	n := len(src.AtomTypes())
	count := 0
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i == j {
				continue
			}
			r2 := 0.0
			for k := 0; k < 3; k++ {
				dk := f.Coord[3*j+k] - f.Coord[3*i+k]
				if f.Box > 0 {
					for dk > f.Box/2 {
						dk -= f.Box
					}
					for dk < -f.Box/2 {
						dk += f.Box
					}
				}
				r2 += dk * dk
			}
			if r2 < rcut*rcut {
				count++
			}
		}
	}
	avg := float64(count) / float64(n)
	if avg < 1 {
		avg = 1
	}
	return avg
}
