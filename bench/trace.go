package main

import (
	"context"
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"

	"repro/internal/ea"
	"repro/internal/hpo"
)

// span is one timed interval at a layer boundary.  The hierarchy is
// campaign -> generation -> dispatch -> evaluate -> train; every span of
// one campaign carries its id.  Times are Unix nanoseconds, the clock
// the service stamps its events with.
type span struct {
	ID       int    `json:"id"`
	Parent   int    `json:"parent"` // -1: a campaign, or a span no campaign of the window owns
	Name     string `json:"name"`
	Campaign string `json:"campaign"`
	Start    int64  `json:"start_ns"`
	End      int64  `json:"end_ns"`
	key      string // genome bits; joins spans across the wire
}

func (s span) dur() float64 { return float64(s.End - s.Start) }

// tracer records spans from the benchmark's own wrappers around the
// calls into each layer; the program under test is not instrumented.  A
// nil *tracer is tracing off: its wrap methods return their argument.
type tracer struct {
	mu    sync.Mutex
	spans []span
}

type spanKey struct{}

func (t *tracer) begin(name, key string, parent int) int {
	now := time.Now().UnixNano()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans), Parent: parent, Name: name, Start: now, key: key})
	return len(t.spans) - 1
}

func (t *tracer) end(id int) {
	now := time.Now().UnixNano()
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// reset drops the warm-up's spans; nothing is in flight when it runs.
func (t *tracer) reset() {
	if t != nil {
		t.spans = t.spans[:0]
	}
}

// wrapEvaluator records one span per Evaluate call.  The span id rides
// the context so a trainer below it can name its parent.
func (t *tracer) wrapEvaluator(name string, inner ea.Evaluator) ea.Evaluator {
	if t == nil {
		return inner
	}
	return ea.EvaluatorFunc(func(ctx context.Context, g ea.Genome) (ea.Fitness, error) {
		id := t.begin(name, ea.GenomeKey(g), -1)
		defer t.end(id)
		return inner.Evaluate(context.WithValue(ctx, spanKey{}, id), g)
	})
}

func (t *tracer) wrapTrainer(inner hpo.Trainer) hpo.Trainer {
	if t == nil {
		return inner
	}
	return hpo.TrainerFunc(func(ctx context.Context, inputPath, runDir string) error {
		parent, ok := ctx.Value(spanKey{}).(int)
		if !ok {
			parent = -1
		}
		id := t.begin("train", "", parent)
		defer t.end(id)
		return inner.Train(ctx, inputPath, runDir)
	})
}

// link adds the campaign and generation spans the service's events
// describe and joins the recorded spans under them.  A dispatch belongs
// to the generation that scored its genome and was open when it started
// (twin campaigns score the same genomes at the same time; the memo lets
// one of them dispatch, and either owner is right).  An evaluate belongs
// to the oldest unanswered dispatch of its genome.
func (t *tracer) link(recs []*campaignRec) {
	byGenome := map[string][]int{} // genome -> generation spans that scored it
	add := func(s span) int {
		s.ID = len(t.spans)
		t.spans = append(t.spans, s)
		return s.ID
	}
	for _, rec := range recs {
		done, ok := rec.event("done")
		if !ok || rec.result == nil {
			continue
		}
		cid := add(span{Parent: -1, Name: "campaign", Campaign: rec.id, Start: rec.due.UnixNano(), End: done.Time.UnixNano()})
		for i, e := range rec.events {
			if e.Type != "generation" || i == 0 {
				continue
			}
			gid := add(span{Parent: cid, Name: "generation", Campaign: rec.id, Start: rec.events[i-1].Time.UnixNano(), End: e.Time.UnixNano()})
			for _, run := range rec.result.Runs {
				if e.Gen < len(run.Generations) {
					for _, ind := range run.Generations[e.Gen].Evaluated {
						k := ea.GenomeKey(ind.Genome)
						byGenome[k] = append(byGenome[k], gid)
					}
				}
			}
		}
	}
	waiting := map[string][]int{} // genome -> dispatches not yet matched to an evaluate
	for i := range t.spans {
		s := &t.spans[i]
		switch s.Name {
		case "dispatch":
			for _, gid := range byGenome[s.key] {
				if g := t.spans[gid]; g.Start <= s.Start && s.Start <= g.End {
					s.Parent = gid
					break
				}
			}
			waiting[s.key] = append(waiting[s.key], i)
		case "evaluate":
			if q := waiting[s.key]; len(q) > 0 {
				s.Parent = q[0]
				waiting[s.key] = q[1:]
			}
		}
	}
	var owner func(i int) string
	owner = func(i int) string {
		s := &t.spans[i]
		if s.Campaign == "" && s.Parent >= 0 {
			s.Campaign = owner(s.Parent)
		}
		return s.Campaign
	}
	for i := range t.spans {
		owner(i)
	}
}

func (t *tracer) write(path string) error {
	data, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// union is the total length covered by the intervals, each clipped to
// [lo, hi].
func union(iv [][2]int64, lo, hi int64) float64 {
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, end int64
	end = lo
	for _, x := range iv {
		a, b := max(x[0], end), min(x[1], hi)
		if b > a {
			total += b - a
			end = b
		}
	}
	return float64(total)
}

// spanMetrics derives the per-layer numbers that need the trace: each
// layer's self time is its span minus what its child spans cover.
func (t *tracer) spanMetrics(workers int, window time.Duration) []metric {
	children := map[int][]int{}
	for i, s := range t.spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	var genSelf, idle, straggler, overhead []float64
	var busy float64
	for i, g := range t.spans {
		switch g.Name {
		case "evaluate":
			busy += g.dur()
		case "dispatch":
			for _, e := range children[i] {
				overhead = append(overhead, (g.dur()-t.spans[e].dur())/1e3)
			}
		case "generation":
			var dispatches [][2]int64
			var evalSum, evalMax float64
			n := 0
			for _, d := range children[i] {
				dispatches = append(dispatches, [2]int64{t.spans[d].Start, t.spans[d].End})
				for _, e := range children[d] {
					dur := t.spans[e].dur()
					evalSum += dur
					evalMax = max(evalMax, dur)
					n++
				}
			}
			genSelf = append(genSelf, (g.dur()-union(dispatches, g.Start, g.End))/1e6)
			if g.dur() > 0 {
				idle = append(idle, 1-evalSum/(float64(workers)*g.dur()))
			}
			if n > 0 && evalSum > 0 {
				straggler = append(straggler, evalMax/(evalSum/float64(n)))
			}
		}
	}
	return []metric{
		{"service.gen_self_ms", "ms", median(genSelf), len(genSelf)},
		{"cluster.dispatch_overhead_us", "us", median(overhead), len(overhead)},
		{"cluster.dispatch_overhead_p99_us", "us", quantile(overhead, 0.99), len(overhead)},
		{"cluster.barrier_idle_frac", "frac", median(idle), len(idle)},
		{"cluster.straggler_ratio", "ratio", median(straggler), len(straggler)},
		{"cluster.fleet_busy_frac", "frac", busy / (float64(workers) * float64(window)), len(t.spans)},
	}
}
