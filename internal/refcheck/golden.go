package refcheck

import (
	"context"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"sort"
	"strconv"
	"strings"

	"repro/internal/dataset"
	"repro/internal/deepmd"
	"repro/internal/descriptor"
	"repro/internal/ea"
	"repro/internal/md"
	"repro/internal/nn"
	"repro/internal/nsga2"
)

// The golden campaign is a miniature but fully wired NSGA-II
// hyperparameter search: a synthetic MD dataset, a real deepmd training
// run per candidate, two RMSE objectives, and the paper's selection
// loop.  Every quantity it produces is bit-deterministic — the frontier,
// its hypervolume and the reference learning curve are committed under
// testdata/golden/ and diffed exactly, across -count=2, Threads=1 vs N,
// and the in-process pool vs the cluster scheduler.

// GoldenRef is the hypervolume reference point for the golden frontier.
var GoldenRef = ea.Fitness{100, 100}

// GoldenBounds are the campaign's gene bounds: log10 of the start
// learning rate and the stop/start learning-rate ratio.
var GoldenBounds = ea.Bounds{{Lo: -3, Hi: -1}, {Lo: 0.1, Hi: 0.9}}

// GoldenReferenceGenome is the fixed candidate whose learning curve is
// the committed lcurve.out golden.
var GoldenReferenceGenome = ea.Genome{-2, 0.5}

// GoldenDataset builds the campaign's synthetic AlCl3-KCl training and
// validation sets from a fixed seed.
func GoldenDataset() (train, val *dataset.Dataset) {
	rng := rand.New(rand.NewSource(7))
	species := []md.Species{md.Al, md.Cl, md.Cl, md.Cl, md.K, md.Cl}
	pot := md.NewPaperBMH(4.0)
	d := dataset.Generate(rng, species, 7.0, 498, pot, 0.5, 60, 5, 6)
	train = &dataset.Dataset{Types: d.Types, Frames: d.Frames[:4]}
	val = &dataset.Dataset{Types: d.Types, Frames: d.Frames[4:]}
	return train, val
}

func goldenModelConfig() deepmd.ModelConfig {
	return deepmd.ModelConfig{
		Descriptor: descriptor.Config{
			RCut: 4.0, RCutSmth: 1.0,
			EmbeddingSizes: []int{4, 8},
			AxisNeurons:    2,
			Activation:     nn.Tanh,
			NumSpecies:     3,
			NeighborNorm:   6,
		},
		FittingSizes:      []int{10},
		FittingActivation: nn.Tanh,
		NumSpecies:        3,
	}
}

// genomeSeed derives a deterministic model/training seed from the exact
// bits of the genome.  Genomes survive the cluster's JSON round trip
// bit-for-bit (encoding/json emits the shortest representation that
// parses back exactly), so local and cluster evaluations of the same
// candidate initialize identical models.
func genomeSeed(g ea.Genome) int64 {
	h := fnv.New64a()
	var buf [8]byte
	for _, v := range g {
		bits := math.Float64bits(v)
		for i := 0; i < 8; i++ {
			buf[i] = byte(bits >> (8 * i))
		}
		h.Write(buf[:])
	}
	return int64(h.Sum64())
}

// GoldenEvaluator trains a fresh model per candidate and reports the
// final validation RMSEs as the two objectives — the in-miniature
// version of the paper's per-node DeePMD-kit job.
type GoldenEvaluator struct {
	Train, Val *dataset.Dataset
	// Threads bounds the per-evaluation worker pool.  The campaign
	// output must be bit-identical for every value.
	Threads int
}

// GoldenTrainConfig is the training schedule the evaluator runs for a
// genome; exported so the lcurve golden uses exactly the same schedule.
func (e *GoldenEvaluator) GoldenTrainConfig(g ea.Genome) deepmd.TrainConfig {
	startLR := math.Pow(10, g[0])
	return deepmd.TrainConfig{
		Steps:         40,
		BatchSize:     2,
		StartLR:       startLR,
		StopLR:        startLR * g[1],
		ScaleByWorker: "none",
		Workers:       1,
		DispFreq:      10,
		Threads:       e.Threads,
		Seed:          genomeSeed(g),
	}
}

// Evaluate implements ea.Evaluator.
func (e *GoldenEvaluator) Evaluate(ctx context.Context, g ea.Genome) (ea.Fitness, error) {
	if len(g) != len(GoldenBounds) {
		return nil, fmt.Errorf("refcheck: golden genome has %d genes, want %d", len(g), len(GoldenBounds))
	}
	rng := rand.New(rand.NewSource(genomeSeed(g)))
	m, err := deepmd.NewModel(rng, goldenModelConfig())
	if err != nil {
		return nil, err
	}
	res, err := deepmd.Train(ctx, m, e.Train, e.Val, e.GoldenTrainConfig(g), nil)
	if err != nil {
		return nil, err
	}
	return ea.Fitness{res.FinalEnergyRMSE, res.FinalForceRMSE}, nil
}

// RunGoldenCampaign runs the fixed-seed campaign against the given
// evaluator (in-process or cluster-backed) and evaluation parallelism.
func RunGoldenCampaign(ctx context.Context, ev ea.Evaluator, parallelism int) (*nsga2.Result, error) {
	return nsga2.Run(ctx, nsga2.Config{
		PopSize:      6,
		Generations:  3,
		Bounds:       GoldenBounds,
		InitialStd:   []float64{0.3, 0.1},
		AnnealFactor: nsga2.PaperAnnealFactor,
		Evaluator:    ev,
		Pool:         ea.PoolConfig{Parallelism: parallelism, Objectives: len(GoldenRef)},
		Seed:         42,
	})
}

// FormatFrontier renders the non-dominated set of the final population
// as one canonical line per member — full-precision genes then
// objectives — sorted so the rendering is independent of evaluation
// completion order.
func FormatFrontier(final ea.Population) string {
	frontier := nsga2.NonDominated(final)
	lines := make([]string, 0, len(frontier))
	for _, ind := range frontier {
		fields := make([]string, 0, len(ind.Genome)+len(ind.Fitness))
		for _, v := range ind.Genome {
			fields = append(fields, strconv.FormatFloat(v, 'g', -1, 64))
		}
		for _, v := range ind.Fitness {
			fields = append(fields, strconv.FormatFloat(v, 'g', -1, 64))
		}
		lines = append(lines, strings.Join(fields, " "))
	}
	sort.Strings(lines)
	return strings.Join(lines, "\n") + "\n"
}

// FormatHypervolume renders the frontier hypervolume at the golden
// reference point with full float64 precision.
func FormatHypervolume(final ea.Population) string {
	hv := nsga2.Hypervolume2D(nsga2.NonDominated(final), GoldenRef)
	return strconv.FormatFloat(hv, 'g', -1, 64) + "\n"
}
