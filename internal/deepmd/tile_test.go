package deepmd

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/dataset"
	"repro/internal/descriptor"
	"repro/internal/md"
	"repro/internal/neighbor"
	"repro/internal/nn"
)

var inferenceTilesPath = filepath.Join("testdata", "inference_tiles.txt")

// saltCell generates two frames of an AlCl3 + 3 KCl melt: atoms/10
// formula units in a cubic box of side box Å.
func saltCell(atoms int, box float64) *dataset.Dataset {
	unit := []md.Species{md.Al, md.K, md.K, md.K, md.Cl, md.Cl, md.Cl, md.Cl, md.Cl, md.Cl}
	var species []md.Species
	for len(species) < atoms {
		species = append(species, unit...)
	}
	rng := rand.New(rand.NewSource(int64(atoms)))
	return dataset.Generate(rng, species, box, 498, md.NewPaperBMH(0.49*box), 0.5, 60, 5, 2)
}

// inferenceCells are the cells TestGoldenInferenceTiles pins and
// BenchmarkInference times.
var inferenceCells = []struct {
	atoms     int
	box, rcut float64
}{
	{20, 8.9, 4.0},
	{160, 17.8, 5.5},
}

// paperModel builds an untrained model at the paper's layer shapes with
// act in both networks.
func paperModel(tb testing.TB, rcut float64, act nn.Activation) *Model {
	tb.Helper()
	m, err := NewModel(rand.New(rand.NewSource(5)), ModelConfig{
		Descriptor: descriptor.Config{
			RCut: rcut, RCutSmth: 1.0,
			EmbeddingSizes: []int{25, 50, 100},
			AxisNeurons:    4,
			Activation:     act,
			NumSpecies:     3,
			NeighborNorm:   24,
		},
		FittingSizes:      []int{240, 240, 240},
		FittingActivation: act,
		NumSpecies:        3,
	})
	if err != nil {
		tb.Fatal(err)
	}
	return m
}

// TestGoldenInferenceTiles pins inference — EnergyForces and EvalErrors,
// the path that turns a trained model into the two fitness objectives —
// at the paper's layer shapes (embedding {25, 50, 100}, fitting
// {240, 240, 240}) on two cells: 20 atoms at the benchmark's density
// with rcut 4 (two atom tiles, brute-force neighbour list) and 160
// atoms in a 17.8 Å box with rcut 5.5 (ten tiles, cell-grid list).  Both
// cutoffs are below half the box, so the minimum image is exact.  Each
// line holds the SHA-256 of every energy and force bit over the cell's
// frames and EvalErrors' two RMSEs in hex, once with tanh (whose
// derivative is read off its output) and once with softplus (whose is
// not).  Threads 1 and 4 must print the same line.  Under the race
// detector, whose GEMM loops run ~16× slower, the 160-atom lines keep
// their committed text.  The fixture was written by the per-atom
// embedding path that preceded the fused one; -update-golden rewrites
// it, so never pass it to prove a refactor.
func TestGoldenInferenceTiles(t *testing.T) {
	want, err := os.ReadFile(inferenceTilesPath)
	if err != nil && !*updateGolden {
		t.Fatalf("missing fixture (run `go test ./internal/deepmd -run InferenceTiles -update-golden`): %v", err)
	}
	var got bytes.Buffer
	for _, c := range inferenceCells {
		d := saltCell(c.atoms, c.box)
		for _, act := range []nn.Activation{nn.Tanh, nn.Softplus} {
			label := fmt.Sprintf("atoms=%d rcut=%v act=%s", c.atoms, c.rcut, act.Name())
			if raceEnabled && c.atoms > 20 {
				for _, line := range bytes.SplitAfter(want, []byte("\n")) {
					if bytes.HasPrefix(line, []byte(label+" ")) {
						got.Write(line)
					}
				}
				continue
			}
			m := paperModel(t, c.rcut, act)
			var lines []string
			for _, threads := range []int{1, 4} {
				m.SetThreads(threads)
				h := sha256.New()
				var word [8]byte
				put := func(v float64) {
					binary.LittleEndian.PutUint64(word[:], math.Float64bits(v))
					h.Write(word[:])
				}
				for f := range d.Frames {
					fr := &d.Frames[f]
					e, forces := m.EnergyForces(fr.Coord, d.Types, fr.Box)
					put(e)
					for _, v := range forces {
						put(v)
					}
				}
				rmseE, rmseF := EvalErrors(m, d, 0)
				lines = append(lines, fmt.Sprintf("%s sha256 %x rmse_e %x rmse_f %x\n", label, h.Sum(nil), rmseE, rmseF))
			}
			if lines[0] != lines[1] {
				t.Fatalf("Threads 1 and 4 disagree:\n%s%s", lines[0], lines[1])
			}
			got.WriteString(lines[0])
		}
	}
	if *updateGolden {
		if err := os.WriteFile(inferenceTilesPath, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Errorf("inference drifted:\n--- got ---\n%s--- want ---\n%s", got.Bytes(), want)
	}
}

// TestTileSteadyStateAllocs holds one inference sweep — computeTile and
// mergeTile over every tile of a 20-atom frame, energy only and with
// forces — at zero allocations on a warm scratch.  Both functions' doc
// comments name this test as their allocation contract.
func TestTileSteadyStateAllocs(t *testing.T) {
	m := newTestModel(t, 24)
	d := saltCell(20, 8.9)
	fr := &d.Frames[0]
	var nl neighbor.List
	nl.Build(fr.Coord, fr.Box, m.Cfg.Descriptor.RCut, 0)
	s := &evalScratch{}
	dcoord := make([]float64, len(fr.Coord))
	nTiles := (len(d.Types) + fitTile - 1) / fitTile
	for _, mode := range []evalMode{modeEnergy, modeForces} {
		energy := 0.0
		sweep := func() {
			for u := 0; u < nTiles; u++ {
				m.computeTile(s, mode, fr.Coord, d.Types, fr.Box, u, &nl)
				m.mergeTile(s, mode, d.Types, u, &energy, dcoord)
			}
		}
		sweep()
		if got := testing.AllocsPerRun(10, sweep); got != 0 {
			t.Errorf("mode %d: computeTile+mergeTile: %v allocs/sweep in steady state, want 0", mode, got)
		}
	}
}

// BenchmarkInference times EnergyForces on one frame and EvalErrors over
// two at the paper's layer shapes, on TestGoldenInferenceTiles' two
// cells, at Threads 1 and 2.
func BenchmarkInference(b *testing.B) {
	for _, c := range inferenceCells {
		d := saltCell(c.atoms, c.box)
		m := paperModel(b, c.rcut, nn.Tanh)
		fr := &d.Frames[0]
		for _, threads := range []int{1, 2} {
			m.SetThreads(threads)
			name := fmt.Sprintf("atoms=%d/threads=%d", c.atoms, threads)
			b.Run(name+"/EnergyForces", func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					m.EnergyForces(fr.Coord, d.Types, fr.Box)
				}
			})
			b.Run(name+"/EvalErrors", func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					EvalErrors(m, d, 0)
				}
			})
		}
	}
}
