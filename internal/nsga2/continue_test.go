package nsga2

import (
	"context"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"repro/internal/ea"
)

// copyLog deep-copies run records the way a log file round trip does:
// fresh individuals with the same ID, genome, fitness, error, runtime and
// birth, and every survivor resolved to the copy of the individual it
// names.  Rank and crowding distance are left zero.
func copyLog(recs []GenerationRecord) []GenerationRecord {
	copies := map[*ea.Individual]*ea.Individual{}
	out := make([]GenerationRecord, len(recs))
	for g, rec := range recs {
		out[g] = GenerationRecord{Gen: rec.Gen, Failures: rec.Failures}
		for _, ind := range rec.Evaluated {
			c := &ea.Individual{
				ID: ind.ID, Genome: ind.Genome.Clone(), Fitness: append(ea.Fitness(nil), ind.Fitness...),
				Evaluated: ind.Evaluated, Err: ind.Err, Runtime: ind.Runtime, Birth: ind.Birth,
			}
			copies[ind] = c
			out[g].Evaluated = append(out[g].Evaluated, c)
		}
		for _, ind := range rec.Survivors {
			out[g].Survivors = append(out[g].Survivors, copies[ind])
		}
	}
	return out
}

// TestGoldenLoopsReplay continues each generational run of TestGoldenLoops
// from every prefix of its log, the empty one included, and holds each
// continuation to the full run's loops.txt section.  The observer must
// see exactly the generations the continuation evaluates.
func TestGoldenLoopsReplay(t *testing.T) {
	ctx := context.Background()
	want, err := os.ReadFile(filepath.Join("testdata", "golden", "loops.txt"))
	if err != nil {
		t.Fatal(err)
	}
	paper, err := Run(ctx, goldenConfig(11))
	if err != nil {
		t.Fatal(err)
	}
	names, cfgs := goldenRuns(paper)
	for i, cfg := range cfgs {
		full, err := Run(ctx, cfg)
		if err != nil {
			t.Fatal(err)
		}
		var fb strings.Builder
		writeRun(&fb, names[i], full)
		if !strings.Contains(string(want), fb.String()) {
			t.Fatalf("%s: the full run's section is not in loops.txt", names[i])
		}
		for k := 0; k <= len(full.Generations); k++ {
			var observed []int
			cfg := cfg
			cfg.Observer = func(gen int, _, _ ea.Population) { observed = append(observed, gen) }
			res, err := Continue(ctx, cfg, copyLog(full.Generations[:k]))
			if err != nil {
				t.Fatalf("%s from %d generations: %v", names[i], k, err)
			}
			var b strings.Builder
			writeRun(&b, names[i], res)
			if b.String() != fb.String() {
				t.Errorf("%s from %d generations: the continuation leaves the full run", names[i], k)
			}
			if len(observed) != len(full.Generations)-k || (len(observed) > 0 && observed[0] != k) {
				t.Errorf("%s from %d generations: observer saw generations %v", names[i], k, observed)
			}
		}
	}
}

// TestGoldenLoopsReplayRefuses checks that a log the search would not
// have written is refused, naming the generation (and position) where
// it first disagrees.
func TestGoldenLoopsReplayRefuses(t *testing.T) {
	ctx := context.Background()
	cfg := goldenConfig(11)
	full, err := Run(ctx, cfg)
	if err != nil {
		t.Fatal(err)
	}
	other, err := Run(ctx, goldenConfig(99))
	if err != nil {
		t.Fatal(err)
	}

	flipped := copyLog(full.Generations)
	g := flipped[2].Evaluated[3].Genome
	g[1] = math.Float64frombits(math.Float64bits(g[1]) ^ 1)

	// A generation-2 offspring that selection dropped now dominates
	// everything, so it must survive generation 2.
	edited := copyLog(full.Generations)
	for _, ind := range edited[2].Evaluated {
		if !slices.Contains(edited[2].Survivors, ind) {
			ind.Fitness = ea.Fitness{-1, -1}
			break
		}
	}

	short := cfg
	short.Generations--

	for _, tc := range []struct {
		name   string
		cfg    Config
		logged []GenerationRecord
		want   string
	}{
		{"another seed", cfg, other.Generations, "generation 0, position 0:"},
		{"flipped genome bit", cfg, flipped, "generation 2, position 3:"},
		{"edited fitness", cfg, edited, "generation 2, survivor"},
		{"one generation too long", short, full.Generations, "holds 5 generations, the run has 4"},
	} {
		_, err := Continue(ctx, tc.cfg, tc.logged)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want one containing %q", tc.name, err, tc.want)
		}
	}
}
