// Distributed: run the hyperparameter search through the Dask-style
// scheduler/worker cluster over local TCP, including a mid-campaign
// worker failure — demonstrating the paper's operational choice of
// disabling worker "nannies" and letting the scheduler reassign tasks
// from dead workers (§2.2.5).
//
//	go run ./examples/distributed
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"repro/internal/cluster"
	"repro/internal/ea"
	"repro/internal/hpo"
	"repro/internal/surrogate"
)

func main() {
	// The surrogate plays the role of the two-hour DeePMD training each
	// Summit node performed; a small delay makes the fan-out visible.
	inner := surrogate.NewEvaluator(surrogate.Config{Seed: 7})
	handler := cluster.EvalHandler(evalWithDelay{inner})

	lc, err := cluster.NewLocalCluster(8, handler, 2*time.Hour)
	if err != nil {
		log.Fatal(err)
	}
	defer lc.Close()
	fmt.Printf("scheduler on %s with %d workers\n", lc.Scheduler.Addr(), len(lc.Workers))

	// Kill two workers mid-campaign: their in-flight evaluations must be
	// reassigned, not lost.
	go func() {
		time.Sleep(150 * time.Millisecond)
		lc.Workers[0].Close()
		lc.Workers[1].Close()
		fmt.Println("!! killed workers 0 and 1 (no nannies: they stay dead)")
	}()

	res, err := hpo.RunCampaign(context.Background(), hpo.CampaignConfig{
		Runs: 1, PopSize: 30, Generations: 4,
		Evaluator:   &cluster.Evaluator{Client: lc.Scheduler},
		Parallelism: 30, AnnealFactor: 0.85, BaseSeed: 11,
	})
	if err != nil {
		log.Fatal(err)
	}

	st := lc.Scheduler.Stats()
	fmt.Printf("\nscheduler stats: submitted=%d completed=%d failed=%d reassigned=%d workers=%d\n",
		st.Submitted, st.Completed, st.Failed, st.Reassigned, st.Workers)
	fmt.Printf("campaign: %d evaluations, %d failures\n",
		res.TotalEvaluations(), res.TotalFailures())
	fmt.Println("frontier:")
	for i, ind := range res.ParetoFront() {
		h, _ := hpo.Decode(ind.Genome)
		fmt.Printf("  %2d energy=%.4f force=%.4f  %s\n", i+1, ind.Fitness[0], ind.Fitness[1], h)
	}
}

// evalWithDelay adds a tiny sleep so task fan-out and reassignment are
// observable.
type evalWithDelay struct{ inner *surrogate.Evaluator }

func (e evalWithDelay) Evaluate(ctx context.Context, g ea.Genome) (ea.Fitness, error) {
	select {
	case <-time.After(10 * time.Millisecond):
	case <-ctx.Done():
		return nil, ctx.Err()
	}
	return e.inner.Evaluate(ctx, g)
}
