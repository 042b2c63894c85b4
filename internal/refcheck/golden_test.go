package refcheck

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"repro/internal/cluster"
	"repro/internal/dataset"
	"repro/internal/deepmd"
	"repro/internal/descriptor"
	"repro/internal/md"
	"repro/internal/nn"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/golden fixtures from the current implementation")

var goldenData struct {
	once       sync.Once
	train, val *dataset.Dataset
}

func goldenDataset(t *testing.T) (*dataset.Dataset, *dataset.Dataset) {
	t.Helper()
	goldenData.once.Do(func() {
		goldenData.train, goldenData.val = GoldenDataset()
	})
	return goldenData.train, goldenData.val
}

func goldenPath(name string) string {
	return filepath.Join("testdata", "golden", name)
}

// checkGolden compares got against the committed fixture byte-for-byte,
// or rewrites the fixture under -update-golden.
func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := goldenPath(name)
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden fixture %s (run `go test ./internal/refcheck -update-golden`): %v", path, err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s drifted from the golden fixture.\n--- got ---\n%s--- want ---\n%s"+
			"If the change is intentional, regenerate with `go test ./internal/refcheck -update-golden`.",
			name, got, want)
	}
}

// runCampaign executes the golden campaign with the in-process pool and
// returns the canonical frontier and hypervolume renderings.
func runCampaign(t *testing.T, threads, parallelism int) (frontier, hv string) {
	t.Helper()
	train, val := goldenDataset(t)
	ev := &GoldenEvaluator{Train: train, Val: val, Threads: threads}
	res, err := RunGoldenCampaign(context.Background(), ev, parallelism)
	if err != nil {
		t.Fatalf("golden campaign: %v", err)
	}
	return FormatFrontier(res.Final), FormatHypervolume(res.Final)
}

// TestGoldenCampaignLocal pins the whole pipeline — dataset generation,
// model init, training, NSGA-II selection, frontier extraction and
// hypervolume — to committed fixtures, byte-for-byte.  Run with
// -count=2 to confirm the process itself is replay-stable.
func TestGoldenCampaignLocal(t *testing.T) {
	frontier, hv := runCampaign(t, 1, 2)
	checkGolden(t, "frontier.txt", []byte(frontier))
	checkGolden(t, "hypervolume.txt", []byte(hv))
}

// TestGoldenCampaignThreadInvariance reruns the campaign with a wide
// per-evaluation thread pool and serial evaluation; every byte must
// match the Threads=1, Parallelism=2 golden.
func TestGoldenCampaignThreadInvariance(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	frontier, hv := runCampaign(t, 8, 1)
	checkGolden(t, "frontier.txt", []byte(frontier))
	checkGolden(t, "hypervolume.txt", []byte(hv))
}

// TestGoldenCampaignCluster runs the same campaign through the cluster
// plane — Scheduler.Submit, two TCP workers, JSON task round trips — and
// requires the identical frontier and hypervolume bytes.  Genomes and
// fitnesses must survive serialization exactly for this to hold.
func TestGoldenCampaignCluster(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	train, val := goldenDataset(t)
	worker := &GoldenEvaluator{Train: train, Val: val, Threads: 1}
	lc, err := cluster.NewLocalCluster(2, cluster.EvalHandler(worker), 0)
	if err != nil {
		t.Fatalf("local cluster: %v", err)
	}
	defer lc.Close()

	res, err := RunGoldenCampaign(context.Background(), &cluster.Evaluator{Client: lc.Scheduler}, 2)
	if err != nil {
		t.Fatalf("golden campaign via cluster: %v", err)
	}
	checkGolden(t, "frontier.txt", []byte(FormatFrontier(res.Final)))
	checkGolden(t, "hypervolume.txt", []byte(FormatHypervolume(res.Final)))
}

// trainReference trains a fresh model of the reference genome under cfg
// and returns the lcurve.out bytes and the final flat parameters.
func trainReference(t *testing.T, cfg deepmd.TrainConfig) ([]byte, []float64) {
	t.Helper()
	train, val := goldenDataset(t)
	rng := rand.New(rand.NewSource(genomeSeed(GoldenReferenceGenome)))
	m, err := deepmd.NewModel(rng, goldenModelConfig())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := deepmd.Train(context.Background(), m, train, val, cfg, &buf); err != nil {
		t.Fatalf("train reference genome: %v", err)
	}
	param, _ := m.Arenas()
	return buf.Bytes(), param
}

// TestGoldenLCurve pins the reference candidate's learning-curve bytes
// — the exact lcurve.out a DeePMD-kit run would leave behind — and
// checks they are identical under Threads=1 and Threads=8.
func TestGoldenLCurve(t *testing.T) {
	curves := make([][]byte, 0, 2)
	for _, threads := range []int{1, 8} {
		ev := &GoldenEvaluator{Threads: threads}
		curve, _ := trainReference(t, ev.GoldenTrainConfig(GoldenReferenceGenome))
		curves = append(curves, curve)
	}
	if !bytes.Equal(curves[0], curves[1]) {
		t.Fatalf("lcurve bytes differ between Threads=1 and Threads=8:\n%s\nvs\n%s", curves[0], curves[1])
	}
	checkGolden(t, "lcurve.out", curves[0])
}

// TestGoldenLCurveWorkers6 pins the data-parallel path the campaign
// goldens cannot see (GoldenEvaluator trains with Workers: 1): the
// reference genome trained paper-shaped, six workers per step, at one
// and two frames per worker.  The fixture was written by the serial
// worker loop that preceded concurrent replicas, and again — the same
// bytes, at five printed digits — by the last commit that had a per-atom
// gradient path beside the fused sweep, with its option for the fused
// sweep switched on; every thread count — fewer replicas than workers,
// an uneven split, more threads than workers — must reproduce it byte
// for byte and reach the same final parameters to the bit.
func TestGoldenLCurveWorkers6(t *testing.T) {
	var first []float64
	for _, threads := range []int{1, 2, 3, 8} {
		var curves bytes.Buffer
		var params []float64
		for _, batch := range []int{1, 2} {
			cfg := (&GoldenEvaluator{Threads: threads}).GoldenTrainConfig(GoldenReferenceGenome)
			cfg.Workers, cfg.BatchSize = 6, batch
			curve, p := trainReference(t, cfg)
			fmt.Fprintf(&curves, "# workers 6, batch_size %d\n%s", batch, curve)
			params = append(params, p...)
		}
		checkGolden(t, "lcurve_workers6.out", curves.Bytes())
		if first == nil {
			first = params
		}
		for k := range params {
			if math.Float64bits(params[k]) != math.Float64bits(first[k]) {
				t.Fatalf("Threads=%d: final parameter %d = %v, Threads=1 reached %v", threads, k, params[k], first[k])
			}
		}
	}
}

// box12Dataset is the golden set's composition at its density in a
// 12 Å cell: five formula units, 30 atoms, four training and two
// validation frames.
func box12Dataset() (train, val *dataset.Dataset) {
	rng := rand.New(rand.NewSource(12))
	unit := []md.Species{md.Al, md.Cl, md.Cl, md.Cl, md.K, md.Cl}
	var species []md.Species
	for range 5 {
		species = append(species, unit...)
	}
	d := dataset.Generate(rng, species, 12.0, 498, md.NewPaperBMH(4.0), 0.5, 60, 5, 6)
	return &dataset.Dataset{Types: d.Types, Frames: d.Frames[:4]},
		&dataset.Dataset{Types: d.Types, Frames: d.Frames[4:]}
}

// TestGoldenLCurveBox12 pins the reference genome's learning curve, on
// the golden schedule and model, in the regime where the minimum image
// is exact: rcut 4 Å plus the trainer's skin stays below half of a
// 12 Å box, so no atom sees two images of another.  Teaching the
// neighbour search about periodic images beyond the minimum one must not
// move these bytes.  The last line is the SHA-256 of every final
// parameter's IEEE-754 bits, which lcurve.out's five digits do not show.
// Threads 0 follows GOMAXPROCS and must match Threads 1.
func TestGoldenLCurveBox12(t *testing.T) {
	train, val := box12Dataset()
	curves := make([][]byte, 0, 2)
	for _, threads := range []int{1, 0} {
		m, err := deepmd.NewModel(rand.New(rand.NewSource(genomeSeed(GoldenReferenceGenome))), goldenModelConfig())
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		cfg := (&GoldenEvaluator{Threads: threads}).GoldenTrainConfig(GoldenReferenceGenome)
		if _, err := deepmd.Train(context.Background(), m, train, val, cfg, &buf); err != nil {
			t.Fatalf("train reference genome: %v", err)
		}
		h := sha256.New()
		var word [8]byte
		param, _ := m.Arenas()
		for _, v := range param {
			binary.LittleEndian.PutUint64(word[:], math.Float64bits(v))
			h.Write(word[:])
		}
		fmt.Fprintf(&buf, "# params sha256 %x\n", h.Sum(nil))
		curves = append(curves, buf.Bytes())
	}
	if !bytes.Equal(curves[0], curves[1]) {
		t.Fatalf("lcurve bytes differ between Threads=1 and Threads=GOMAXPROCS:\n%s\nvs\n%s", curves[0], curves[1])
	}
	checkGolden(t, "lcurve_box12.out", curves[0])
}

// paperNetDataset is a 20-atom AlCl3 + 3 KCl cell at the paper's density
// (two formula units, the benchmark's real-trainer system), 12 training
// and 4 validation frames.
func paperNetDataset() (train, val *dataset.Dataset) {
	rng := rand.New(rand.NewSource(18))
	unit := []md.Species{md.Al, md.K, md.K, md.K, md.Cl, md.Cl, md.Cl, md.Cl, md.Cl, md.Cl}
	species := append(append([]md.Species(nil), unit...), unit...)
	const box = 8.9
	d := dataset.Generate(rng, species, box, 498, md.NewPaperBMH(0.49*box), 0.5, 60, 5, 16)
	return d.Split(0.25)
}

// TestGoldenPaperNetBits pins the trainer at the paper's layer shapes —
// embedding {25, 50, 100} with 4 axis neurons, fitting {240, 240, 240} —
// which the {4, 8}/{10} campaign goldens above do not reach.  One line
// per (descriptor activation, frames per worker): the SHA-256 of the
// lcurve.out bytes followed by the IEEE-754 bits of every final
// parameter (lcurve.out prints five digits; the hash does not).  Six
// workers, three steps, validation every step.  The hashes were written
// by the pure-Go kernels that preceded the SIMD micro-kernel, running
// the fused sweep while it was still an option beside a per-atom path;
// whichever kernel path the build selects must reproduce all ten lines.
// Under the race detector, where the kernels' Go loops run
// ~16× slower (8 s per training), only the first activation pair at one
// frame per worker trains; the other nine lines keep their committed
// text so the fixture still compares whole.
func TestGoldenPaperNetBits(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	train, val := paperNetDataset()
	var got bytes.Buffer
	for i, name := range nn.ActivationNames {
		fitName := nn.ActivationNames[(i+1)%len(nn.ActivationNames)]
		descAct, _ := nn.ActivationByName(name)
		fitAct, _ := nn.ActivationByName(fitName)
		for _, batch := range []int{1, 2} {
			label := fmt.Sprintf("desc=%s fit=%s batch_size=%d", name, fitName, batch)
			if raceEnabled && (i > 0 || batch == 2) {
				got.WriteString(paperNetLine(t, label))
				continue
			}
			m, err := deepmd.NewModel(rand.New(rand.NewSource(int64(100+i))), deepmd.ModelConfig{
				Descriptor: descriptor.Config{
					RCut: 6.0, RCutSmth: 2.0,
					EmbeddingSizes: []int{25, 50, 100},
					AxisNeurons:    4,
					Activation:     descAct,
					NumSpecies:     3,
					NeighborNorm:   24,
				},
				FittingSizes:      []int{240, 240, 240},
				FittingActivation: fitAct,
				NumSpecies:        3,
			})
			if err != nil {
				t.Fatal(err)
			}
			var curve bytes.Buffer
			cfg := deepmd.TrainConfig{
				Steps: 3, BatchSize: batch, Workers: 6, DispFreq: 1, ValFrames: 2,
				StartLR: 1e-3, StopLR: 1e-4, ScaleByWorker: "linear",
				Seed: int64(7 + i),
			}
			if _, err := deepmd.Train(context.Background(), m, train, val, cfg, &curve); err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			h := sha256.New()
			h.Write(curve.Bytes())
			var word [8]byte
			param, _ := m.Arenas()
			for _, v := range param {
				binary.LittleEndian.PutUint64(word[:], math.Float64bits(v))
				h.Write(word[:])
			}
			fmt.Fprintf(&got, "%s %x\n", label, h.Sum(nil))
		}
	}
	checkGolden(t, "papernet.sha256", got.Bytes())
}

// paperNetLine returns the committed papernet.sha256 line for label.
func paperNetLine(t *testing.T, label string) string {
	t.Helper()
	want, err := os.ReadFile(goldenPath("papernet.sha256"))
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range bytes.SplitAfter(want, []byte("\n")) {
		if bytes.HasPrefix(line, []byte(label+" ")) {
			return string(line)
		}
	}
	t.Fatalf("papernet.sha256 has no line for %q", label)
	return ""
}

// TestGoldenEvaluatorRejectsBadGenome documents the evaluator's
// contract for malformed cluster payloads.
func TestGoldenEvaluatorRejectsBadGenome(t *testing.T) {
	train, val := goldenDataset(t)
	ev := &GoldenEvaluator{Train: train, Val: val, Threads: 1}
	if _, err := ev.Evaluate(context.Background(), nil); err == nil {
		t.Fatal("expected error for empty genome")
	}
}
