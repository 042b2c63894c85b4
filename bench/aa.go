package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"time"
)

// quartiles returns what Python's statistics.quantiles(xs, n=4) returns
// (the exclusive method), which is how the benchmark's driver measures
// spread.
func quartiles(xs []float64) (q [3]float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n < 2 {
		return [3]float64{s[0], s[0], s[0]}
	}
	for i := 1; i <= 3; i++ {
		j := min(max(i*(n+1)/4, 1), n-1)
		delta := float64(i*(n+1) - j*4)
		q[i-1] = (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return q
}

// runAA measures the same code twice: for each workload, sets A and B of
// n runs each, interleaved A B A B, run i of both sets on seed+i.  Every
// run is a fresh process, as under the benchmark's driver.  It prints a
// markdown table and returns non-zero if the set medians differ, in
// either direction, by more than the metric's bound: both sets ran the
// same code, so any gap is noise.
func runAA(selected []workload, n int, seed int64, seconds int) int {
	code := 0
	fmt.Println("| workload | metric | A median (q1..q3) | B median (q1..q3) | spread A | spread B | B vs A | bound |")
	fmt.Println("|---|---|---|---|---|---|---|---|")
	for _, wl := range selected {
		samples := [2]map[string][]float64{{}, {}}
		for i := 0; i < n; i++ {
			for set := 0; set < 2; set++ {
				out, err := runChild(wl.name, seed+int64(i), seconds)
				if err != nil {
					fmt.Fprintf(os.Stderr, "bench: %s run %d: %v\n", wl.name, i, err)
					return 1
				}
				for name, m := range out.Metrics {
					samples[set][name] = append(samples[set][name], m.Value)
				}
			}
		}
		for _, spec := range endToEndSpec {
			bound := spec.bound
			if wl.timeBound != 0 && spec.name != "setup_s" {
				bound = wl.timeBound
			}
			a, b := quartiles(samples[0][spec.name]), quartiles(samples[1][spec.name])
			gap := (b[1] - a[1]) / a[1]
			mark := ""
			if math.Abs(gap) > bound {
				mark = " EXCEEDED"
				code = 1
			}
			fmt.Printf("| %s | %s (%s) | %.5g (%.5g..%.5g) | %.5g (%.5g..%.5g) | %.2f%% | %.2f%% | %+.2f%% | %.0f%%%s |\n",
				wl.name, spec.name, spec.unit, a[1], a[0], a[2], b[1], b[0], b[2],
				100*(a[2]-a[0])/a[1], 100*(b[2]-b[0])/b[1], 100*gap, 100*bound, mark)
		}
	}
	return code
}

// runChild runs this binary once on one workload and parses its result
// line.  The child has its own deadline; the one here is a little later
// and catches a child that hangs outside its driver.
func runChild(name string, seed int64, seconds int) (*outcome, error) {
	ctx, cancel := context.WithTimeout(context.Background(), runDeadline(seconds)+10*time.Second)
	defer cancel()
	cmd := exec.CommandContext(ctx, os.Args[0], "-workload", name, "-seed", strconv.FormatInt(seed, 10), "-seconds", strconv.Itoa(seconds))
	cmd.Stderr = os.Stderr
	stdout, err := cmd.Output()
	if err != nil {
		return nil, err
	}
	lines := bytes.Split(bytes.TrimSpace(stdout), []byte("\n"))
	var out outcome
	if err := json.Unmarshal(lines[len(lines)-1], &out); err != nil {
		return nil, fmt.Errorf("result line: %w", err)
	}
	if !out.Correct {
		return nil, fmt.Errorf("output checks failed")
	}
	return &out, nil
}
