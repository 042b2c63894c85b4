package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/ea"
	"repro/internal/hpo"
	"repro/internal/nsga2"
)

// hvRef is the (energy, force) hypervolume reference point; the same
// one the repo's convergence experiments use.
var hvRef = ea.Fitness{0.03, 0.6}

// collect fetches one campaign's status, full result document and final
// checkpoint size.
func (rec *campaignRec) collect(ctx context.Context, st *stack, c *client) error {
	data, err := c.do(ctx, "GET", "/v1/campaigns/"+rec.id, nil, http.StatusOK)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(data, &rec.status); err != nil {
		return err
	}
	data, err = c.do(ctx, "GET", "/v1/campaigns/"+rec.id+"/result", nil, http.StatusOK)
	if err != nil {
		return err
	}
	if rec.result, err = hpo.LoadCampaign(bytes.NewReader(data)); err != nil {
		return fmt.Errorf("campaign %s result: %w", rec.id, err)
	}
	fi, err := os.Stat(filepath.Join(st.ckpt, rec.id+".json"))
	if err != nil {
		return err
	}
	rec.ckptBytes = fi.Size()
	return nil
}

func sameBits(a ea.Fitness, e, f float64) bool {
	return len(a) == 2 && math.Float64bits(a[0]) == math.Float64bits(e) && math.Float64bits(a[1]) == math.Float64bits(f)
}

// verdict is what the output checks found on one campaign.
type verdict struct {
	failed   int      // failed operations
	problems []string // failed output checks
	err      error    // the checks could not run
}

// check runs the output checks on one collected campaign.  An operation
// is a campaign or one scored individual; a failed one is a campaign
// that did not reach done, or an evaluation that ended in an error the
// workload did not put there (the surrogate's simulated training
// failures are workload).
func (rec *campaignRec) check(st *stack) (v verdict) {
	bad := func(format string, args ...interface{}) {
		v.problems = append(v.problems, fmt.Sprintf("campaign %s: ", rec.id)+fmt.Sprintf(format, args...))
	}
	want := rec.shape.evals()
	if _, ok := rec.event("done"); !ok || rec.status.State != "done" {
		v.failed++
		bad("ended %q (%s)", rec.status.State, rec.status.Error)
		return v
	}
	if rec.status.Evaluations != want || rec.result.TotalEvaluations() != want {
		bad("scored %d individuals, want %d", rec.status.Evaluations, want)
	}
	for _, run := range rec.result.Runs {
		for _, gen := range run.Generations {
			for _, ind := range gen.Evaluated {
				if !ind.Fitness.IsFailure() {
					continue
				}
				simulated := false
				if st.sur != nil {
					res, err := st.sur.EvaluateGenome(ind.Genome)
					simulated = err == nil && res.Failed
				}
				if !simulated {
					v.failed++
					bad("evaluation of %v failed outside the workload", ind.Genome)
				}
			}
		}
	}
	front := rec.result.ParetoFront()
	if len(front) == 0 || len(nsga2.NonDominated(front)) != len(front) {
		bad("frontier of %d points is empty or not mutually non-dominated", len(front))
	}
	if st.sur == nil {
		for _, ind := range front {
			if !(ind.Fitness[0] > 0 && ind.Fitness[1] > 0) || math.IsInf(ind.Fitness[0]+ind.Fitness[1], 0) {
				bad("frontier loss %v is not finite and positive", ind.Fitness)
			}
		}
		return v
	}
	for _, ind := range front {
		res, err := st.sur.EvaluateGenome(ind.Genome)
		if err != nil || !sameBits(ind.Fitness, res.EnergyLoss, res.ForceLoss) {
			bad("frontier fitness %v differs from the surrogate's", ind.Fitness)
		}
	}
	// The legged service campaign reseeds every generation, so its
	// frontier is close to, not equal to, the unlegged one.
	direct, err := directCampaign(st.sur, rec.shape, rec.seed, nil)
	if err != nil {
		bad("direct campaign: %v", err)
		return v
	}
	got, ref := nsga2.Hypervolume2D(front, hvRef), nsga2.Hypervolume2D(direct.ParetoFront(), hvRef)
	if !(got >= 0.9*ref) {
		bad("hypervolume %g below 0.9 x direct %g", got, ref)
	}
	return v
}

// check collects and checks every campaign of the closed window, then
// the scheduler's books.  It is not load, so it runs on as many
// goroutines as the machine has processors, each with a connection of
// its own.
func (r *runResult) check(ctx context.Context, st *stack) error {
	verdicts := make([]verdict, len(r.campaigns))
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < runtime.GOMAXPROCS(0); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := newClient(st.url)
			for i := int(next.Add(1)) - 1; i < len(r.campaigns); i = int(next.Add(1)) - 1 {
				rec := r.campaigns[i]
				if err := rec.collect(ctx, st, c); err != nil {
					verdicts[i].err = err
					return
				}
				verdicts[i] = rec.check(st)
			}
		}()
	}
	wg.Wait()
	for i, v := range verdicts {
		if v.err != nil {
			return v.err
		}
		r.attempted += 1 + r.campaigns[i].shape.evals()
		r.failed += v.failed
		r.problems = append(r.problems, v.problems...)
	}
	d := r.after.sched
	if d.Completed+d.Failed != d.Submitted || d.Reassigned != 0 || d.Stale != 0 {
		r.problems = append(r.problems, fmt.Sprintf("scheduler books: %+v", d))
	}
	return nil
}

// directCampaign runs a campaign of shape sh through hpo.RunCampaign on
// the in-process evaluator: no service, no fleet, no checkpoints.
func directCampaign(ev ea.Evaluator, sh shape, seed int64, observer func(run, gen int, evaluated, survivors ea.Population)) (*hpo.CampaignResult, error) {
	return hpo.RunCampaign(context.Background(), hpo.CampaignConfig{
		Runs: sh.runs, PopSize: sh.pop, Generations: sh.gens, Parallelism: sh.par,
		Evaluator: ev, AnnealFactor: 0.85, BaseSeed: seed, Observer: observer,
	})
}
