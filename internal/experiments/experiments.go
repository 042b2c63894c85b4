// Package experiments regenerates every table and figure of the paper's
// evaluation section from a campaign run: Fig. 1 (per-generation loss
// level plots), Fig. 2 (final Pareto frontier), Table 2 (frontier values),
// Fig. 3 (parallel-coordinates view of the final solutions), Table 3
// (selected chemically accurate solutions), plus the §3.2 failure
// accounting.  Each experiment returns structured data and a text
// rendering, so the same code backs the CLI, the benchmarks and
// EXPERIMENTS.md.
package experiments

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"time"

	"repro/internal/ea"
	"repro/internal/hpo"
	"repro/internal/stats"
	"repro/internal/surrogate"
)

// Campaign bundles a finished campaign with the surrogate that evaluated
// it, so per-individual simulated runtimes can be recovered
// deterministically.
type Campaign struct {
	Result    *hpo.CampaignResult
	Surrogate *surrogate.Evaluator
	Config    hpo.CampaignConfig
}

// Options scales the paper campaign.
type Options struct {
	Runs        int   // paper: 5
	PopSize     int   // paper: 100
	Generations int   // paper: 6 (7 evaluation rounds)
	Seed        int64 // campaign base seed
	Parallelism int
}

// PaperOptions returns the full paper-scale configuration.
func PaperOptions() Options {
	return Options{Runs: 5, PopSize: 100, Generations: 6, Seed: 2023, Parallelism: 8}
}

// RunPaperCampaign executes the paper's experiment against the Summit
// surrogate.
func RunPaperCampaign(ctx context.Context, opts Options) (*Campaign, error) {
	if opts.Runs <= 0 {
		opts = PaperOptions()
	}
	ev := surrogate.NewEvaluator(surrogate.Config{Seed: opts.Seed})
	cfg := hpo.CampaignConfig{
		Runs:        opts.Runs,
		PopSize:     opts.PopSize,
		Generations: opts.Generations,
		Evaluator:   ev,
		Parallelism: opts.Parallelism,
		// Two (simulated) hours; surrogate evaluations return instantly,
		// so this never fires — it is configuration fidelity only.
		EvalTimeout:  2 * time.Hour,
		AnnealFactor: 0.85,
		BaseSeed:     opts.Seed,
	}
	res, err := hpo.RunCampaign(ctx, cfg)
	if err != nil {
		return nil, err
	}
	return &Campaign{Result: res, Surrogate: ev, Config: cfg}, nil
}

// runtimeOf recomputes an individual's simulated training runtime.
func (c *Campaign) runtimeOf(ind *ea.Individual) time.Duration {
	r, err := c.Surrogate.EvaluateGenome(ind.Genome)
	if err != nil {
		return 0
	}
	return r.Runtime
}

// ---------------------------------------------------------------------------
// Table 1 — initialization ranges and mutation standard deviations.

// Table1Row is one hyperparameter's configuration.
type Table1Row struct {
	Name     string
	Lo, Hi   float64
	Std      float64
	IsStatic bool
}

// Table1 reproduces Table 1 from the representation in code.
func Table1() []Table1Row {
	rep := hpo.PaperRepresentation()
	rows := make([]Table1Row, hpo.NumGenes)
	for g := 0; g < hpo.NumGenes; g++ {
		rows[g] = Table1Row{
			Name: hpo.GeneNames[g],
			Lo:   rep.Bounds[g].Lo, Hi: rep.Bounds[g].Hi,
			Std: rep.Std[g],
		}
	}
	return rows
}

// RenderTable1 formats Table 1 as text.
func RenderTable1() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table 1: initialization ranges and mutation standard deviations\n")
	fmt.Fprintf(&b, "%-20s %-22s %s\n", "hyperparameter", "initialization range", "mutation std")
	for _, r := range Table1() {
		fmt.Fprintf(&b, "%-20s (%.3g, %.3g)%*s %g\n", r.Name, r.Lo, r.Hi, 22-len(fmt.Sprintf("(%.3g, %.3g)", r.Lo, r.Hi)), "", r.Std)
	}
	return b.String()
}

// ---------------------------------------------------------------------------
// Fig. 1 — energy vs force loss level plots per generation, runs pooled.

// Fig1Result holds one histogram per generation.
type Fig1Result struct {
	Hists []*stats.Hist2D // index = generation
}

// Fig1 pools each generation's evaluated individuals across runs and bins
// (force, energy) into the paper's plot window: force up to 0.6 eV/Å,
// energy up to 0.03 eV/atom — the same cropping §3.1 applies to outliers.
func Fig1(c *Campaign) *Fig1Result {
	gens := c.Config.Generations + 1
	out := &Fig1Result{}
	for g := 0; g < gens; g++ {
		h := stats.NewHist2D(0, 0.6, 60, 0, 0.03, 20)
		for _, run := range c.Result.Runs {
			if g >= len(run.Generations) {
				continue
			}
			for _, ind := range run.Generations[g].Evaluated {
				if ind.Fitness.IsFailure() {
					h.Add(-1, -1) // count as cropped, like MAXINT points
					continue
				}
				h.Add(ind.Fitness[1], ind.Fitness[0]) // x=force, y=energy
			}
		}
		out.Hists = append(out.Hists, h)
	}
	return out
}

// Render formats the level plots generation by generation.
func (f *Fig1Result) Render() string {
	var b strings.Builder
	b.WriteString("Fig. 1: energy vs. force loss level plots per generation (runs pooled)\n")
	b.WriteString("x: force loss (eV/Å), y: energy loss (eV/atom)\n\n")
	for g, h := range f.Hists {
		fmt.Fprintf(&b, "generation %d:\n%s\n", g, h.Render())
	}
	return b.String()
}

// ---------------------------------------------------------------------------
// Fig. 2 / Table 2 — final Pareto frontier.

// FrontierPoint is one non-dominated solution.
type FrontierPoint struct {
	ForceError  float64 // eV/Å
	EnergyError float64 // eV/atom
	Params      hpo.HParams
	Runtime     time.Duration
}

// Fig2 computes the Pareto frontier of the pooled last generations,
// sorted by ascending force error like Table 2.
func Fig2(c *Campaign) []FrontierPoint {
	front := c.Result.ParetoFront()
	points := make([]FrontierPoint, 0, len(front))
	for _, ind := range front {
		if ind.Fitness.IsFailure() {
			continue
		}
		h, err := hpo.Decode(ind.Genome)
		if err != nil {
			continue
		}
		points = append(points, FrontierPoint{
			ForceError:  ind.Fitness[1],
			EnergyError: ind.Fitness[0],
			Params:      h,
			Runtime:     c.runtimeOf(ind),
		})
	}
	sort.Slice(points, func(i, j int) bool { return points[i].ForceError < points[j].ForceError })
	return points
}

// Fig2Hist bins the pooled last generations into the Fig. 2 window
// (force 0.03–0.08 eV/Å, energy 0–0.005 eV/atom).
func Fig2Hist(c *Campaign) *stats.Hist2D {
	h := stats.NewHist2D(0.03, 0.08, 50, 0, 0.005, 20)
	for _, ind := range c.Result.LastGenerations() {
		if !ind.Fitness.IsFailure() {
			h.Add(ind.Fitness[1], ind.Fitness[0])
		}
	}
	return h
}

// RenderFig2 renders the frontier as a scatter summary plus the pooled
// last-generation cloud it is drawn from.
func RenderFig2(c *Campaign) string {
	points := Fig2(c)
	pool := c.Result.LastGenerations()
	h := Fig2Hist(c)
	var b strings.Builder
	b.WriteString("Fig. 2: Pareto frontier of the aggregated last generations\n")
	fmt.Fprintf(&b, "pooled solutions: %d, frontier points: %d\n\n", len(pool), len(points))
	b.WriteString(h.Render())
	b.WriteString("\nfrontier (force asc):\n")
	for i, p := range points {
		fmt.Fprintf(&b, "  %2d  force=%.4f eV/Å  energy=%.4f eV/atom\n", i+1, p.ForceError, p.EnergyError)
	}
	return b.String()
}

// RenderTable2 renders Table 2: force and energy for every frontier
// solution.
func RenderTable2(c *Campaign) string {
	points := Fig2(c)
	var b strings.Builder
	b.WriteString("Table 2: force and energy values for all solutions on the Pareto frontier\n")
	fmt.Fprintf(&b, "%-9s %-20s %s\n", "solution", "force error (eV/Å)", "energy error (eV/atom)")
	for i, p := range points {
		fmt.Fprintf(&b, "%-9d %-20.4f %.4f\n", i+1, p.ForceError, p.EnergyError)
	}
	return b.String()
}

// ---------------------------------------------------------------------------
// Fig. 3 — parallel coordinates of the final solution set.

// Fig3Axes lists the parallel-coordinates axes: the seven tuned
// hyperparameters plus runtime, both losses, and frontier membership, as
// in the paper's plot.
var Fig3Axes = []string{
	"start_lr", "stop_lr", "rcut", "rcut_smth",
	"scale_by_worker", "desc_activ_func", "fitting_activ_func",
	"runtime_min", "energy_loss", "force_loss", "on_frontier",
}

// Fig3 builds the parallel-coordinates dataset from the pooled last
// generations; rows are tagged when chemically accurate (the blue lines).
func Fig3(c *Campaign) *stats.ParallelCoordinates {
	pool := c.Result.LastGenerations()
	frontSet := map[*ea.Individual]bool{}
	for _, ind := range c.Result.ParetoFront() {
		frontSet[ind] = true
	}
	p := &stats.ParallelCoordinates{Axes: Fig3Axes}
	for _, ind := range pool {
		if ind.Fitness.IsFailure() {
			continue
		}
		h, err := hpo.Decode(ind.Genome)
		if err != nil {
			continue
		}
		onFront := 0.0
		if frontSet[ind] {
			onFront = 1
		}
		row := []float64{
			h.StartLR, h.StopLR, h.RCut, h.RCutSmth,
			float64(hpo.DecodeCategorical(ind.Genome[hpo.GeneScaleByWorker], 3)),
			float64(hpo.DecodeCategorical(ind.Genome[hpo.GeneDescActivFunc], 5)),
			float64(hpo.DecodeCategorical(ind.Genome[hpo.GeneFittingActivFunc], 5)),
			c.runtimeOf(ind).Minutes(),
			ind.Fitness[0], ind.Fitness[1], onFront,
		}
		p.AddRow(row, hpo.ChemicallyAccurate(ind.Fitness))
	}
	return p
}

// Fig3Insights summarizes the qualitative observations §3.2 draws from
// the plot.
type Fig3Insights struct {
	Accurate, Total     int
	MinAccurateRCut     float64
	AccurateScaleCounts map[string]int
	AccurateDescCounts  map[string]int
	AccurateFitCounts   map[string]int
	MaxRuntimeMinutes   float64
}

// AnalyzeFig3 extracts the §3.2 observations from the dataset.
func AnalyzeFig3(c *Campaign) Fig3Insights {
	pool := c.Result.LastGenerations()
	ins := Fig3Insights{
		MinAccurateRCut:     99,
		AccurateScaleCounts: map[string]int{},
		AccurateDescCounts:  map[string]int{},
		AccurateFitCounts:   map[string]int{},
	}
	for _, ind := range pool {
		if ind.Fitness.IsFailure() {
			continue
		}
		ins.Total++
		h, err := hpo.Decode(ind.Genome)
		if err != nil {
			continue
		}
		if rt := c.runtimeOf(ind).Minutes(); rt > ins.MaxRuntimeMinutes {
			ins.MaxRuntimeMinutes = rt
		}
		if !hpo.ChemicallyAccurate(ind.Fitness) {
			continue
		}
		ins.Accurate++
		if h.RCut < ins.MinAccurateRCut {
			ins.MinAccurateRCut = h.RCut
		}
		ins.AccurateScaleCounts[h.ScaleByWorker]++
		ins.AccurateDescCounts[h.DescActiv]++
		ins.AccurateFitCounts[h.FittingActiv]++
	}
	return ins
}

// RenderFig3 renders the parallel-coordinates table and the insight
// summary.
func RenderFig3(c *Campaign) string {
	p := Fig3(c)
	ins := AnalyzeFig3(c)
	var b strings.Builder
	b.WriteString("Fig. 3: parallel coordinates of final solutions (* = chemically accurate)\n\n")
	b.WriteString(p.RenderTable(40))
	fmt.Fprintf(&b, "\nchemically accurate: %d of %d\n", ins.Accurate, ins.Total)
	fmt.Fprintf(&b, "min rcut among accurate: %.2f Å (paper: none below 8.5)\n", ins.MinAccurateRCut)
	fmt.Fprintf(&b, "max runtime: %.1f min (paper: all below 80)\n", ins.MaxRuntimeMinutes)
	fmt.Fprintf(&b, "accurate scale_by_worker counts: %v\n", ins.AccurateScaleCounts)
	fmt.Fprintf(&b, "accurate desc activation counts: %v\n", ins.AccurateDescCounts)
	fmt.Fprintf(&b, "accurate fitting activation counts: %v\n", ins.AccurateFitCounts)
	return b.String()
}

// ---------------------------------------------------------------------------
// Table 3 — selected chemically accurate solutions.

// Table3Result holds the three selected solutions.
type Table3Result struct {
	LowestForce   FrontierPoint
	LowestEnergy  FrontierPoint
	LowestRuntime FrontierPoint
}

// Table3 selects, among the chemically accurate solutions of the pooled
// last generations, the ones with lowest force loss, lowest energy loss
// and lowest training runtime (§3.2, Table 3).
func Table3(c *Campaign) (Table3Result, error) {
	acc := hpo.FilterChemicallyAccurate(c.Result.LastGenerations())
	if len(acc) == 0 {
		return Table3Result{}, fmt.Errorf("experiments: no chemically accurate solutions")
	}
	point := func(ind *ea.Individual) FrontierPoint {
		h, _ := hpo.Decode(ind.Genome)
		return FrontierPoint{
			ForceError: ind.Fitness[1], EnergyError: ind.Fitness[0],
			Params: h, Runtime: c.runtimeOf(ind),
		}
	}
	best := func(key func(*ea.Individual) float64) *ea.Individual {
		bestInd := acc[0]
		for _, ind := range acc[1:] {
			if key(ind) < key(bestInd) {
				bestInd = ind
			}
		}
		return bestInd
	}
	return Table3Result{
		LowestForce:   point(best(func(i *ea.Individual) float64 { return i.Fitness[1] })),
		LowestEnergy:  point(best(func(i *ea.Individual) float64 { return i.Fitness[0] })),
		LowestRuntime: point(best(func(i *ea.Individual) float64 { return c.runtimeOf(i).Minutes() })),
	}, nil
}

// RenderTable3 formats Table 3 in the paper's row order.
func RenderTable3(c *Campaign) (string, error) {
	t3, err := Table3(c)
	if err != nil {
		return "", err
	}
	cols := []FrontierPoint{t3.LowestForce, t3.LowestEnergy, t3.LowestRuntime}
	var b strings.Builder
	b.WriteString("Table 3: selected chemically accurate solutions\n")
	b.WriteString("(solution 1 = lowest force loss, 2 = lowest energy loss, 3 = lowest runtime)\n")
	row := func(name string, f func(FrontierPoint) string) {
		fmt.Fprintf(&b, "%-20s", name)
		for _, p := range cols {
			fmt.Fprintf(&b, " %-12s", f(p))
		}
		b.WriteByte('\n')
	}
	row("hyperparameter", func(FrontierPoint) string { return "" })
	row("start_lr", func(p FrontierPoint) string { return fmt.Sprintf("%.4g", p.Params.StartLR) })
	row("stop_lr", func(p FrontierPoint) string { return fmt.Sprintf("%.4g", p.Params.StopLR) })
	row("rcut", func(p FrontierPoint) string { return fmt.Sprintf("%.2f", p.Params.RCut) })
	row("rcut_smth", func(p FrontierPoint) string { return fmt.Sprintf("%.2f", p.Params.RCutSmth) })
	row("scale_by_worker", func(p FrontierPoint) string { return p.Params.ScaleByWorker })
	row("desc_activ_func", func(p FrontierPoint) string { return p.Params.DescActiv })
	row("fitting_activ_func", func(p FrontierPoint) string { return p.Params.FittingActiv })
	row("runtime (min.)", func(p FrontierPoint) string { return fmt.Sprintf("%.1f", p.Runtime.Minutes()) })
	row("energy loss (eV)", func(p FrontierPoint) string { return fmt.Sprintf("%.4f", p.EnergyError) })
	row("force loss (eV/Å)", func(p FrontierPoint) string { return fmt.Sprintf("%.4f", p.ForceError) })
	return b.String(), nil
}

// ---------------------------------------------------------------------------
// §3.2 failure accounting.

// FailureReport counts failed trainings, paper: 25 total across the five
// jobs, none in any job's last generation.
type FailureReport struct {
	Total            int
	LastGen          int
	TotalEvaluations int
	PerGeneration    []int
}

// Failures builds the report.
func Failures(c *Campaign) FailureReport {
	rep := FailureReport{TotalEvaluations: c.Result.TotalEvaluations()}
	gens := c.Config.Generations + 1
	rep.PerGeneration = make([]int, gens)
	for _, run := range c.Result.Runs {
		for g, rec := range run.Generations {
			if g < gens {
				rep.PerGeneration[g] += rec.Failures
			}
		}
	}
	rep.Total = c.Result.TotalFailures()
	rep.LastGen = c.Result.LastGenFailures()
	return rep
}

// RenderFailures formats the report.
func RenderFailures(c *Campaign) string {
	r := Failures(c)
	var b strings.Builder
	b.WriteString("Failed trainings (§3.2)\n")
	fmt.Fprintf(&b, "total evaluations: %d (paper: 3500)\n", r.TotalEvaluations)
	fmt.Fprintf(&b, "total failures:    %d (paper: 25)\n", r.Total)
	fmt.Fprintf(&b, "last generation:   %d (paper: 0)\n", r.LastGen)
	for g, n := range r.PerGeneration {
		fmt.Fprintf(&b, "  generation %d: %d\n", g, n)
	}
	return b.String()
}

// ---------------------------------------------------------------------------
// Everything at once: what `cmd/experiments -exp all` prints.

// artifacts lists, in print order, the artifacts Render draws from one
// campaign: each one's -exp name, its heading and its renderer.
var artifacts = []struct {
	name, title string
	render      func(*Campaign) (string, error)
}{
	{"table1", "Table 1", func(*Campaign) (string, error) { return RenderTable1(), nil }},
	{"fig1", "Fig. 1", func(c *Campaign) (string, error) { return Fig1(c).Render(), nil }},
	{"fig2", "Fig. 2", func(c *Campaign) (string, error) { return RenderFig2(c), nil }},
	{"table2", "Table 2", func(c *Campaign) (string, error) { return RenderTable2(c), nil }},
	{"fig3", "Fig. 3", func(c *Campaign) (string, error) { return RenderFig3(c), nil }},
	{"table3", "Table 3", RenderTable3},
	{"failures", "Failures", func(c *Campaign) (string, error) { return RenderFailures(c), nil }},
	{"convergence", "Convergence (Fig. 1 companion)", func(c *Campaign) (string, error) { return RenderConvergence(c), nil }},
	{"correlations", "Correlations (Fig. 3 companion)", RenderCorrelations},
}

// RenderAll renders every artifact of the paper's evaluation section —
// Tables 1–3, Figs. 1–3, the §3.2 failure count and the two companion
// tables — from one campaign, each under a "==== title ====" heading:
// the text `cmd/experiments -exp all` prints.
func RenderAll(c *Campaign) (string, error) { return Render(c, "all") }

// Render is RenderAll restricted to the artifact named exp (an -exp value
// such as "fig2"); "all" selects every one, and a name outside the list
// renders nothing.
func Render(c *Campaign, exp string) (string, error) {
	var b strings.Builder
	for _, a := range artifacts {
		if exp != "all" && exp != a.name {
			continue
		}
		text, err := a.render(c)
		if err != nil {
			return "", fmt.Errorf("%s: %w", a.name, err)
		}
		fmt.Fprintf(&b, "==== %s ====\n%s\n", a.title, text)
	}
	return b.String(), nil
}
