package main

import (
	"context"
	"encoding/json"
	"errors"
	"math"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/hpo"
)

// smoke shrinks a workload to one small wave: the same code paths at a
// size the race detector finishes in seconds.
func smoke(wl workload) workload {
	shrink := func(s shape) shape {
		return shape{runs: min(s.runs, 2), pop: min(s.pop, 8), gens: min(s.gens, 2), par: min(s.par, 8)}
	}
	wl.campaign = shrink(wl.campaign)
	wl.warm = shape{runs: 1, pop: 2, gens: 0, par: 2}
	wl.waves, wl.warmWaves, wl.warmPerTenant = 1, 1, 1
	wl.perTenant = min(wl.perTenant, 2)
	wl.replayDiv *= 100
	if wl.backend == realBackend {
		wl.campaign = shape{runs: 1, pop: 2, gens: 1, par: 2}
		wl.atoms, wl.trainSteps, wl.valFrames = 6, 2, 2
		wl.template = strings.NewReplacer("[25, 50, 100]", "[3, 6]", "[240, 240, 240]", "[6]").Replace(hpo.DefaultInputTemplate)
	}
	return wl
}

// smokeCtx bounds one smoke run the way main bounds a full one.
func smokeCtx(t *testing.T) context.Context {
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	t.Cleanup(cancel)
	return ctx
}

func checkMetrics(t *testing.T, got []metric, want map[string]string) {
	t.Helper()
	seen := map[string]bool{}
	for _, m := range got {
		unit, ok := want[m.name]
		switch {
		case !ok:
			t.Errorf("metric %s is not in BENCHMARK.json", m.name)
		case seen[m.name]:
			t.Errorf("metric %s reported twice", m.name)
		case unit != m.unit:
			t.Errorf("metric %s has unit %q, BENCHMARK.json says %q", m.name, m.unit, unit)
		case math.IsNaN(m.value) || math.IsInf(m.value, 0):
			t.Errorf("metric %s = %v", m.name, m.value)
		}
		seen[m.name] = true
	}
	for name := range want {
		if !seen[name] {
			t.Errorf("metric %s of BENCHMARK.json was not reported", name)
		}
	}
}

type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct{ Name, Why string }
	EndToEnd   []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		t.Fatal(err)
	}
	return bf
}

// TestBenchmarkFileMatchesCode pins BENCHMARK.json to the tables the
// binary runs from.
func TestBenchmarkFileMatchesCode(t *testing.T) {
	bf := readBenchmarkFile(t)
	if bf.RunSeconds != referenceSeconds {
		t.Errorf("run_seconds = %d, referenceSeconds = %d", bf.RunSeconds, referenceSeconds)
	}
	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in code", len(bf.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if bf.Workloads[i].Name != w.name || bf.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q / %q, code has %q / %q", i, bf.Workloads[i].Name, bf.Workloads[i].Why, w.name, w.why)
		}
	}
	if len(bf.EndToEnd) != len(endToEndSpec) {
		t.Fatalf("%d end_to_end metrics in BENCHMARK.json, %d in code", len(bf.EndToEnd), len(endToEndSpec))
	}
	for i, spec := range endToEndSpec {
		e := bf.EndToEnd[i]
		if e.Name != spec.name || e.Unit != spec.unit || (e.Better == "higher") != spec.higher || e.Bound != spec.bound {
			t.Errorf("end_to_end %d: BENCHMARK.json has %+v, code has %+v", i, e, spec)
		}
	}
}

func TestWorkloadsSmoke(t *testing.T) {
	bf := readBenchmarkFile(t)
	want := map[string]string{}
	for _, e := range bf.EndToEnd {
		want[e.Name] = e.Unit
	}
	for _, wl := range workloads {
		t.Run(wl.name, func(t *testing.T) {
			r, err := runWorkload(smokeCtx(t), smoke(wl), 7, t.TempDir(), time.Now(), nil)
			if err != nil {
				t.Fatal(err)
			}
			for _, p := range r.problems {
				t.Error("output check:", p)
			}
			if r.failed != 0 || r.attempted == 0 {
				t.Errorf("%d of %d operations failed", r.failed, r.attempted)
			}
			got := r.endToEnd()
			checkMetrics(t, got, want)
			for _, m := range got {
				if !(m.value > 0) {
					t.Errorf("%s = %v, want > 0", m.name, m.value)
				}
			}
		})
	}
}

// TestTracedRun runs the traced path on the burst (twin tenants share
// genomes, campaigns overlap) and on the real trainer (train spans),
// checks that the spans form a tree in layer order and that every
// per-layer metric of BENCHMARK.json is reported.
func TestTracedRun(t *testing.T) {
	bf := readBenchmarkFile(t)
	want := map[string]string{}
	for _, e := range bf.PerLayer {
		want[e.Name] = e.Unit
	}
	parentOf := map[string]string{"generation": "campaign", "dispatch": "generation", "evaluate": "dispatch", "train": "evaluate"}
	real, err := workloadByName("real_trainer_campaign")
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"tenant_burst_serve", "real_trainer_campaign"} {
		t.Run(name, func(t *testing.T) {
			wl, err := workloadByName(name)
			if err != nil {
				t.Fatal(err)
			}
			wl = smoke(wl)
			plain, err := runWorkload(smokeCtx(t), wl, 7, t.TempDir(), time.Now(), nil)
			if err != nil {
				t.Fatal(err)
			}
			tr := &tracer{}
			traced, err := runWorkload(smokeCtx(t), wl, 7, t.TempDir(), time.Now(), tr)
			if err != nil {
				t.Fatal(err)
			}
			tr.link(traced.campaigns)
			for _, p := range traced.problems {
				t.Error("output check:", p)
			}

			count := map[string]int{}
			for i, s := range tr.spans {
				count[s.Name]++
				if s.ID != i || s.End < s.Start || s.Campaign == "" {
					t.Fatalf("span %d malformed: %+v", i, s)
				}
				if s.Name == "campaign" {
					if s.Parent != -1 {
						t.Fatalf("campaign span %d has parent %d", i, s.Parent)
					}
					continue
				}
				if s.Parent < 0 || s.Parent >= len(tr.spans) {
					t.Fatalf("%s span %d has no parent", s.Name, i)
				}
				p := tr.spans[s.Parent]
				if p.Name != parentOf[s.Name] || p.Campaign != s.Campaign || s.Start < p.Start {
					t.Fatalf("%s span %+v under %s span %+v", s.Name, s, p.Name, p)
				}
			}
			if count["campaign"] != len(traced.campaigns) || count["dispatch"] == 0 || count["evaluate"] != count["dispatch"] {
				t.Errorf("span counts %v for %d campaigns", count, len(traced.campaigns))
			}
			if wl.backend == realBackend && count["train"] != count["evaluate"] {
				t.Errorf("span counts %v: want one train per evaluate", count)
			}

			got := perLayer(plain, traced, tr)
			// The layer pass is the same for every workload, so once is
			// enough; it is single-threaded timing loops, which the race
			// detector only makes slow.
			if name == "real_trainer_campaign" && !raceEnabled {
				layers, err := layerPass(7, t.TempDir(), smoke(real))
				if err != nil {
					t.Fatal(err)
				}
				checkMetrics(t, append(got, layers...), want)
			}
		})
	}
}

// TestStuckCampaignFailsTheRun: evaluations that outlast the deadline
// make runWorkload return an error, not hang.
func TestStuckCampaignFailsTheRun(t *testing.T) {
	wl, err := workloadByName("paper_replay_fleet")
	if err != nil {
		t.Fatal(err)
	}
	wl = smoke(wl)
	wl.replayDiv = 1 // sleep the surrogate's unscaled runtimes: over an hour each
	ctx, cancel := context.WithTimeout(context.Background(), 300*time.Millisecond)
	defer cancel()
	if _, err := runWorkload(ctx, wl, 7, t.TempDir(), time.Now(), nil); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("runWorkload = %v, want the deadline's error", err)
	}
}

// TestScaled pins what -seconds does: at run_seconds, the -seconds the
// benchmark's driver passes, the counts are the documented ones; any
// other value scales the wave count and nothing else, and never to 0.
func TestScaled(t *testing.T) {
	for _, wl := range workloads {
		if got := wl.scaled(referenceSeconds); !reflect.DeepEqual(got, wl) {
			t.Errorf("%s: scaled(run_seconds) = %+v, want the table's %+v", wl.name, got, wl)
		}
		double, least := wl.scaled(2*referenceSeconds), wl.scaled(1)
		if double.waves != 2*wl.waves || least.waves < 1 {
			t.Errorf("%s: %d waves scale to %d at twice run_seconds and %d at 1 s", wl.name, wl.waves, double.waves, least.waves)
		}
		double.waves = wl.waves
		if !reflect.DeepEqual(double, wl) {
			t.Errorf("%s: scaled changed more than the wave count", wl.name)
		}
	}
}

func TestNormalizeArgs(t *testing.T) {
	got := normalizeArgs([]string{"--workload", "x", "--trace", "1", "--seed", "3", "-trace"})
	want := []string{"--workload", "x", "--trace=1", "--seed", "3", "-trace"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("normalizeArgs = %q, want %q", got, want)
	}
}

// TestQuartilesMatchPython pins quartiles to statistics.quantiles(n=4).
func TestQuartilesMatchPython(t *testing.T) {
	got := quartiles([]float64{10, 1, 2, 3, 4, 5, 6, 7, 8, 9})
	if want := [3]float64{2.75, 5.5, 8.25}; got != want {
		t.Errorf("quartiles = %v, want %v", got, want)
	}
	got = quartiles([]float64{3, 1, 2, 5, 4})
	if want := [3]float64{1.5, 3, 4.5}; got != want {
		t.Errorf("quartiles = %v, want %v", got, want)
	}
}
