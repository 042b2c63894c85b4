package experiments

import (
	"fmt"
	"strings"

	"repro/internal/hpo"
)

// CorrelationMatrix holds the Spearman correlation of every data column
// against every target column.
type CorrelationMatrix struct {
	ColumnNames []string
	TargetNames []string
	// Rho[c][t] is Spearman(data column c, target t).
	Rho [][]float64
}

// newCorrelationMatrix builds the matrix from column-major data: cols[c][i]
// is observation i of column c, named colNames[c], and likewise for
// targets.
func newCorrelationMatrix(colNames []string, cols [][]float64, targetNames []string, targets [][]float64) *CorrelationMatrix {
	m := &CorrelationMatrix{ColumnNames: colNames, TargetNames: targetNames}
	for c := range cols {
		row := make([]float64, len(targets))
		for t := range targets {
			row[t] = Spearman(cols[c], targets[t])
		}
		m.Rho = append(m.Rho, row)
	}
	return m
}

// Render formats the matrix as a table.
func (m *CorrelationMatrix) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-20s", "")
	for _, t := range m.TargetNames {
		fmt.Fprintf(&b, " %12s", t)
	}
	b.WriteByte('\n')
	for c, name := range m.ColumnNames {
		fmt.Fprintf(&b, "%-20s", name)
		for t := range m.TargetNames {
			fmt.Fprintf(&b, " %12.3f", m.Rho[c][t])
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// HyperparameterCorrelations computes Spearman rank correlations between
// each tuned hyperparameter and the two objectives over the pooled final
// solutions — quantifying the relationships §3.2 reads qualitatively off
// the parallel-coordinates plot (larger rcut → lower errors, start_lr
// sweet spot, etc.).  Failed individuals are excluded.
func HyperparameterCorrelations(c *Campaign) (*CorrelationMatrix, error) {
	pool := c.Result.LastGenerations()
	cols := make([][]float64, hpo.NumGenes)
	var energy, force, runtime []float64
	for _, ind := range pool {
		if !ind.Evaluated || ind.Fitness.IsFailure() {
			continue
		}
		h, err := hpo.Decode(ind.Genome)
		if err != nil {
			continue
		}
		vals := []float64{
			h.StartLR, h.StopLR, h.RCut, h.RCutSmth,
			float64(hpo.DecodeCategorical(ind.Genome[hpo.GeneScaleByWorker], 3)),
			float64(hpo.DecodeCategorical(ind.Genome[hpo.GeneDescActivFunc], 5)),
			float64(hpo.DecodeCategorical(ind.Genome[hpo.GeneFittingActivFunc], 5)),
		}
		for g := range cols {
			cols[g] = append(cols[g], vals[g])
		}
		energy = append(energy, ind.Fitness[0])
		force = append(force, ind.Fitness[1])
		runtime = append(runtime, c.runtimeOf(ind).Minutes())
	}
	if len(energy) < 3 {
		return nil, fmt.Errorf("experiments: too few solutions for correlations (%d)", len(energy))
	}
	return newCorrelationMatrix(
		hpo.GeneNames[:], cols,
		[]string{"energy_loss", "force_loss", "runtime_min"},
		[][]float64{energy, force, runtime},
	), nil
}

// RenderCorrelations formats the matrix with a short interpretation.
func RenderCorrelations(c *Campaign) (string, error) {
	m, err := HyperparameterCorrelations(c)
	if err != nil {
		return "", err
	}
	return "Spearman correlations, hyperparameters vs objectives (pooled final solutions)\n" +
		m.Render() +
		"(categorical genes use their decoded index; treat their rows as rough association)\n", nil
}
