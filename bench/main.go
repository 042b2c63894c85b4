// Command bench is the repository's campaign benchmark: four fixed-work
// workloads driven closed-loop over the campaign service's HTTP control
// plane, four end-to-end metrics per workload, and a traced run plus a
// standalone layer pass for the per-layer metrics.  See README.md.
//
//	go run ./bench -workload paper_surrogate_serve -seed 1
//	go run ./bench -workload paper_surrogate_serve -seed 1 -trace
//	go run ./bench                      # every workload, one after another
//	go run ./bench -aa 5                # A/A table: two interleaved sets of 5 runs
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"time"
)

// processStart is where setup_s starts counting.
var processStart = time.Now()

// workRoot holds everything a run writes (checkpoints, the generated
// dataset, training run directories); it is relative to the working
// directory, removed on exit and named in .gitignore.
const workRoot = ".bench_work"

// outcome is what one invocation reports for one workload; it marshals
// to the result line.
type outcome struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]metricJSON `json:"metrics"`
}

type metricJSON struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// normalizeArgs lets -trace take the driver's separate 0|1 operand
// ("--trace 1") as well as stand alone ("-trace"), which a boolean flag
// of package flag cannot do by itself.
func normalizeArgs(args []string) []string {
	var out []string
	for i := 0; i < len(args); i++ {
		a := args[i]
		if (a == "-trace" || a == "--trace") && i+1 < len(args) && (args[i+1] == "0" || args[i+1] == "1") {
			a += "=" + args[i+1]
			i++
		}
		out = append(out, a)
	}
	return out
}

// runDeadline bounds one run of one workload, so that a campaign that
// never finishes fails the run instead of hanging it.  A traced run
// measures the workload twice and a slow machine stretches fixed work,
// hence seven times the nominal window.
func runDeadline(seconds int) time.Duration { return time.Duration(7*seconds) * time.Second }

func main() { os.Exit(run(os.Args[1:])) }

func run(args []string) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to run (default: all, one after another)")
	seed := fs.Int64("seed", 1, "derives campaign base seeds, the surrogate's noise and the dataset RNG")
	seconds := fs.Int("seconds", referenceSeconds, "the benchmark driver's run length: scales the campaign counts (BENCHMARK.json's run_seconds gives the documented ones), never cuts a run short")
	trace := fs.Bool("trace", false, "traced run: report the per-layer metrics instead of the end-to-end ones")
	traceOut := fs.String("trace-out", "", "with -trace: write the spans to this file as JSON")
	aa := fs.Int("aa", 0, "run every selected workload N times in each of two interleaved sets and print the A/A table")
	if err := fs.Parse(normalizeArgs(args)); err != nil {
		return 2
	}
	if fs.NArg() > 0 || *seconds < 1 {
		fmt.Fprintln(os.Stderr, "bench: unexpected arguments or -seconds < 1")
		return 2
	}
	selected := workloads
	if *name != "" {
		wl, err := workloadByName(*name)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 2
		}
		selected = []workload{wl}
	}
	if *aa > 0 {
		return runAA(selected, *aa, *seed, *seconds)
	}
	code := 0
	started := processStart
	for _, wl := range selected {
		ctx, cancel := context.WithTimeout(context.Background(), runDeadline(*seconds))
		out, err := runOnce(ctx, wl.scaled(*seconds), *seed, *trace, *traceOut, started)
		cancel()
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %s: %v\n", wl.name, err)
			return 1
		}
		line, err := json.Marshal(out)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
		fmt.Println(string(line))
		if !out.Correct {
			code = 1
		}
		started = time.Now()
	}
	return code
}

// runOnce measures one workload and prints every metric by name.  An
// untraced run reports the end-to-end metrics.  A traced run measures
// the workload twice on fresh stacks, tracing off then on, adds the
// layer pass, and reports the per-layer metrics.
func runOnce(ctx context.Context, wl workload, seed int64, trace bool, traceOut string, started time.Time) (*outcome, error) {
	dir := filepath.Join(workRoot, fmt.Sprintf("%s-%d", wl.name, os.Getpid()))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	defer func() {
		_ = os.RemoveAll(dir)
		_ = os.Remove(workRoot) // succeeds only once no other run is using it
	}()

	plain, err := runWorkload(ctx, wl, seed, filepath.Join(dir, "plain"), started, nil)
	if err != nil {
		return nil, err
	}
	fmt.Printf("# %s seed=%d: %d campaigns, %d individuals, window %.3f s\n",
		wl.name, seed, len(plain.campaigns), plain.evals(), plain.window.Seconds())
	out := &outcome{Attempted: plain.attempted, Failed: plain.failed, Metrics: map[string]metricJSON{}}
	problems := plain.problems
	metrics := plain.endToEnd()
	if trace {
		for _, m := range metrics {
			printMetric(m)
		}
		tr := &tracer{}
		traced, err := runWorkload(ctx, wl, seed, filepath.Join(dir, "traced"), time.Now(), tr)
		if err != nil {
			return nil, err
		}
		tr.link(traced.campaigns)
		if traceOut != "" {
			if err := tr.write(traceOut); err != nil {
				return nil, err
			}
		}
		real, err := workloadByName("real_trainer_campaign")
		if err != nil {
			return nil, err
		}
		layers, err := layerPass(seed, filepath.Join(dir, "layers"), real)
		if err != nil {
			return nil, fmt.Errorf("layer pass: %w", err)
		}
		metrics = append(perLayer(plain, traced, tr), layers...)
		out.Attempted += traced.attempted
		out.Failed += traced.failed
		problems = append(problems, traced.problems...)
	}
	for _, m := range metrics {
		if math.IsNaN(m.value) || math.IsInf(m.value, 0) {
			problems = append(problems, fmt.Sprintf("metric %s has no finite value", m.name))
			m.value = 0
		}
		printMetric(m)
		out.Metrics[m.name] = metricJSON{Value: m.value, Unit: m.unit}
	}
	fmt.Printf("operations: %d attempted, %d failed\n", out.Attempted, out.Failed)
	for i, p := range problems {
		if i == 20 {
			fmt.Printf("CHECK FAILED: ... and %d more\n", len(problems)-i)
			break
		}
		fmt.Println("CHECK FAILED:", p)
	}
	out.Correct = len(problems) == 0 && out.Failed == 0
	return out, nil
}

func printMetric(m metric) {
	fmt.Printf("%-36s %16.6g %-6s n=%d\n", m.name, m.value, m.unit, m.n)
}
