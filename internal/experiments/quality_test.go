package experiments

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"

	"repro/internal/ea"
	"repro/internal/hpo"
	"repro/internal/nsga2"
	"repro/internal/stats"
	"repro/internal/surrogate"
)

// qualitySeeds is the number of paired seeds TestGoldenSearchQuality
// runs, and qualityAlpha the level of both of its tests.
const (
	qualitySeeds = 30
	qualityAlpha = 0.01
)

// qualityRef is the hypervolume reference point: the paper's chemical-
// accuracy limits (0.004 eV/atom, 0.04 eV/Å), which hpo.ChemicallyAccurate
// holds.  A point scores only if it is chemically accurate in both.
var qualityRef = ea.Fitness{0.004, 0.04}

// qualityScores runs, for every seed s in 1…qualitySeeds, one paper-shape
// surrogate campaign (5 × 100 × 7, BaseSeed = surrogate seed = s) and one
// random search of the same 3 500 evaluations on seed s, and scores every
// point each evaluated by its hypervolume at qualityRef.
func qualityScores(t *testing.T) (ga, random []float64) {
	t.Helper()
	ga, random = make([]float64, qualitySeeds), make([]float64, qualitySeeds)
	errs := make([]error, qualitySeeds)
	seeds := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < runtime.GOMAXPROCS(0); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range seeds {
				ga[i], random[i], errs[i] = qualityPair(int64(i + 1))
			}
		}()
	}
	for i := 0; i < qualitySeeds; i++ {
		seeds <- i
	}
	close(seeds)
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("seed %d: %v", i+1, err)
		}
	}
	return ga, random
}

func qualityPair(seed int64) (ga, random float64, err error) {
	ctx := context.Background()
	opts := PaperOptions()
	opts.Seed, opts.Parallelism = seed, 1
	c, err := RunPaperCampaign(ctx, opts)
	if err != nil {
		return 0, 0, err
	}
	var all ea.Population
	for _, run := range c.Result.Runs {
		for _, gen := range run.Generations {
			all = append(all, gen.Evaluated...)
		}
	}
	rs, err := randomSearch(ctx, surrogate.NewEvaluator(surrogate.Config{Seed: seed}),
		hpo.PaperRepresentation().Bounds, c.Result.TotalEvaluations(), 1, seed)
	if err != nil {
		return 0, 0, err
	}
	return nsga2.Hypervolume2D(all, qualityRef), nsga2.Hypervolume2D(rs, qualityRef), nil
}

// formatQuality writes one line per seed: the seed, then NSGA-II's and
// random search's hypervolume as hex floats, which round-trip exactly.
func formatQuality(ga, random []float64) string {
	var b strings.Builder
	b.WriteString("# seed nsga2 random: hypervolume of every evaluated point at (0.004 eV/atom, 0.04 eV/Å)\n")
	for i := range ga {
		fmt.Fprintf(&b, "%d %s %s\n", i+1, strconv.FormatFloat(ga[i], 'x', -1, 64), strconv.FormatFloat(random[i], 'x', -1, 64))
	}
	return b.String()
}

// parseQuality reads the NSGA-II column of a formatQuality fixture.
func parseQuality(data string) ([]float64, error) {
	var ga []float64
	for n, line := range strings.Split(strings.TrimSuffix(data, "\n"), "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		f := strings.Fields(line)
		if len(f) != 3 {
			return nil, fmt.Errorf("line %d: %d fields, want 3", n+1, len(f))
		}
		v, err := strconv.ParseFloat(f[1], 64)
		if err != nil {
			return nil, fmt.Errorf("line %d: %w", n+1, err)
		}
		ga = append(ga, v)
	}
	return ga, nil
}

// TestGoldenSearchQuality is the search-quality fence.  Byte goldens say
// whether anything moved; this test also says whether the search still
// searches, so it can hold across a change that moves bytes on purpose.
// It checks, at α = 0.01:
//
//   - NSGA-II beats random search on the same budget and seeds, by a
//     paired one-sided sign test (29 of 30 seeds when the fixture was
//     written; 22 of 30 is the least that passes);
//   - NSGA-II's 30 values are not worse than the committed ones, by a
//     one-sided Mann–Whitney U test;
//   - the 60 values equal testdata/golden/quality.txt bit for bit.
//
// Power: the seed-to-seed interquartile spread of NSGA-II's hypervolume
// is about 2 %, and it leads random search by about 5 % in the median.
// The two distribution tests catch "the search is broken" — a loss of
// that 5 % lead — but not a 1 % operator drift (annealing switched off
// moves the median by about −0.8 %, Mann–Whitney p = 0.015).  The bytes
// guard the rest, and a declared break that rewrites them
// (-update-golden) must still pass the distribution tests against the
// fixture it replaces.
func TestGoldenSearchQuality(t *testing.T) {
	if raceEnabled {
		t.Skip("statistics fence: 210 000 surrogate evaluations; run without -race")
	}
	ga, random := qualityScores(t)

	wins, n, p := stats.SignTest(ga, random)
	t.Logf("NSGA-II beats random search on %d of %d seeds: sign test p = %.3g", wins, n, p)
	if !(p < qualityAlpha) {
		t.Errorf("NSGA-II beats random search on %d of %d seeds: sign test p = %.3g, want < %g", wins, n, p, qualityAlpha)
	}

	path := filepath.Join("testdata", "golden", "quality.txt")
	want, err := os.ReadFile(path)
	if err != nil && !*updateGolden {
		t.Fatalf("missing golden fixture %s (run `go test ./internal/experiments -run GoldenSearchQuality -update-golden`): %v", path, err)
	}
	if err == nil {
		committed, err := parseQuality(string(want))
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		u, p := stats.MannWhitneyU(committed, ga)
		t.Logf("committed against this run: Mann–Whitney U = %v, p = %.3g", u, p)
		if p < qualityAlpha {
			t.Errorf("NSGA-II hypervolumes worse than the committed ones: Mann–Whitney U = %v, p = %.3g < %g", u, p, qualityAlpha)
		}
	}

	got := formatQuality(ga, random)
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	if got != string(want) {
		t.Errorf("quality.txt drifted:\n got:\n%s\nwant:\n%s", got, want)
	}
}
