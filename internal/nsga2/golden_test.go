package nsga2

import (
	"context"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"repro/internal/ea"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/golden fixtures from the current implementation")

// goldenConfig is the small ZDT1 run every loop in TestGoldenLoops starts
// from.
func goldenConfig(seed int64) Config {
	p := zdt1(8)
	std := make([]float64, len(p.Bounds))
	for i := range std {
		std[i] = 0.2
	}
	return Config{
		PopSize:      8,
		Generations:  4,
		Bounds:       p.Bounds,
		InitialStd:   std,
		AnnealFactor: 0.9,
		Evaluator:    p.Evaluator(),
		Pool:         ea.PoolConfig{Parallelism: 2, Objectives: 2},
		Seed:         seed,
	}
}

// writePop writes one line per individual: birth generation, genome and
// fitness at full precision.  UUIDs are random and left out.
func writePop(b *strings.Builder, title string, pop ea.Population) {
	fmt.Fprintf(b, "%s (%d)\n", title, len(pop))
	num := func(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
	for _, ind := range pop {
		g := make([]string, len(ind.Genome))
		for i, v := range ind.Genome {
			g[i] = num(v)
		}
		f := make([]string, len(ind.Fitness))
		for i, v := range ind.Fitness {
			f[i] = num(v)
		}
		fmt.Fprintf(b, "  birth=%d genome=[%s] fitness=[%s]\n", ind.Birth, strings.Join(g, " "), strings.Join(f, " "))
	}
}

func writeRun(b *strings.Builder, name string, res *Result) {
	for _, rec := range res.Generations {
		writePop(b, fmt.Sprintf("%s gen %d evaluated", name, rec.Gen), rec.Evaluated)
		writePop(b, fmt.Sprintf("%s gen %d survivors", name, rec.Gen), rec.Survivors)
	}
	writePop(b, name+" final", res.Final)
}

// goldenRuns returns the three generational runs of TestGoldenLoops, by
// section name: (a) Run with the paper's pipeline, (b) with the
// ablation's tournament + SBX + polynomial Breeder, and (c) a warm start
// from (a)'s final population, which is why it takes (a)'s result.
func goldenRuns(paper *Result) (names []string, cfgs []Config) {
	canonical := goldenConfig(12)
	bounds := canonical.Bounds
	canonical.Breeder = func(rng *rand.Rand, _ *ea.Context, parents ea.Population, gen int) ea.Stream {
		return ea.Pipe(
			TournamentSelection(rng, parents),
			ea.Clone(),
			ea.SBX(rng, bounds, 15, 0.9),
			ea.MutatePolynomial(rng, bounds, 20, 1.0/float64(len(bounds))),
			ea.SetBirth(gen),
		)
	}
	warm := goldenConfig(13)
	warm.Generations = 3
	warm.Initial = paper.Final
	return []string{"paper", "canonical", "warm"}, []Config{goldenConfig(11), canonical, warm}
}

// TestGoldenLoops pins the search loops' draw order to the bit: the
// paper pipeline, a custom Breeder, a warm start through Config.Initial
// and the steady-state loop on one worker, each on a small seeded ZDT1
// run.  Any change to how a loop seeds, breeds, anneals or merges moves
// testdata/golden/loops.txt.
func TestGoldenLoops(t *testing.T) {
	ctx := context.Background()
	var b strings.Builder

	paper, err := Run(ctx, goldenConfig(11))
	if err != nil {
		t.Fatal(err)
	}
	names, cfgs := goldenRuns(paper)
	for i, cfg := range cfgs {
		res, err := Run(ctx, cfg)
		if err != nil {
			t.Fatal(err)
		}
		writeRun(&b, names[i], res)
	}

	// (d) The steady-state loop on one worker, so completion order is
	// dispatch order.
	cfg := goldenConfig(14)
	cfg.Pool.Parallelism = 1
	final, all, err := RunSteadyState(ctx, cfg)
	if err != nil {
		t.Fatal(err)
	}
	writePop(&b, "steady all", all)
	writePop(&b, "steady final", final)

	got := b.String()
	path := filepath.Join("testdata", "golden", "loops.txt")
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden fixture %s (run `go test ./internal/nsga2 -run GoldenLoops -update-golden`): %v", path, err)
	}
	if got == string(want) {
		return
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gl) || i < len(wl); i++ {
		var g, w string
		if i < len(gl) {
			g = gl[i]
		}
		if i < len(wl) {
			w = wl[i]
		}
		if g != w {
			t.Fatalf("loops.txt drifted: first difference at line %d:\n got: %q\nwant: %q", i+1, g, w)
		}
	}
}
