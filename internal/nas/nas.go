// Package nas implements the paper's stated future work (§4): extending
// the hyperparameter search with neural-architecture search over the two
// DeePMD networks.  The genome grows from seven to eleven genes — the
// original Table 1 hyperparameters plus embedding width/depth and
// fitting-network width/depth — decoded with the same floor-modulus rule
// for the discrete architecture genes.  A capacity-aware extension of the
// Summit surrogate scores architectures (under-capacity hurts accuracy,
// over-capacity pays runtime with diminishing returns), and the campaign
// driver compares the NAS frontier against the fixed-architecture
// baseline by hypervolume.
package nas

import (
	"fmt"
	"math"

	"repro/internal/ea"
	"repro/internal/hpo"
)

// Gene indices: the first seven match package hpo exactly, then the
// architecture genes.
const (
	GeneEmbWidth = hpo.NumGenes + iota // final embedding layer width
	GeneEmbDepth                       // embedding stack depth (1-3)
	GeneFitWidth                       // fitting layer width
	GeneFitDepth                       // fitting stack depth (1-3)
	NumGenes
)

// GeneNames lists all eleven genes in genome order.
var GeneNames = func() [NumGenes]string {
	var names [NumGenes]string
	copy(names[:], hpo.GeneNames[:])
	names[GeneEmbWidth] = "emb_width"
	names[GeneEmbDepth] = "emb_depth"
	names[GeneFitWidth] = "fit_width"
	names[GeneFitDepth] = "fit_depth"
	return names
}()

// Params is a decoded NAS candidate: the paper's hyperparameters plus an
// architecture.
type Params struct {
	hpo.HParams
	EmbWidth int // final embedding layer width (paper default: 100)
	EmbDepth int // embedding layers, halving widths upward (paper: 3)
	FitWidth int // fitting layer width (paper default: 240)
	FitDepth int // fitting layers (paper: 3)
}

// PaperArchitecture returns the fixed architecture of §2.1.2:
// embedding {25, 50, 100}, fitting {240, 240, 240}.
func PaperArchitecture() Params {
	return Params{EmbWidth: 100, EmbDepth: 3, FitWidth: 240, FitDepth: 3}
}

// EmbeddingSizes expands (width, depth) into the DeePMD-style pyramid:
// depth 3 with width 100 gives {25, 50, 100}, matching the paper.
func (p Params) EmbeddingSizes() []int {
	sizes := make([]int, p.EmbDepth)
	w := p.EmbWidth
	for i := p.EmbDepth - 1; i >= 0; i-- {
		sizes[i] = max(w, 2)
		w /= 2
	}
	return sizes
}

// FittingSizes expands (width, depth) into the constant-width fitting
// stack: depth 3 with width 240 gives {240, 240, 240}.
func (p Params) FittingSizes() []int {
	sizes := make([]int, p.FitDepth)
	for i := range sizes {
		sizes[i] = max(p.FitWidth, 2)
	}
	return sizes
}

// ParamCountEstimate approximates trainable parameters per species pair:
// the embedding pyramid from a scalar input plus the fitting stack from a
// width·axis descriptor.  Used for capacity and runtime modeling.
func (p Params) ParamCountEstimate() int {
	const axis = 4
	total := 0
	prev := 1
	for _, w := range p.EmbeddingSizes() {
		total += prev*w + w
		prev = w
	}
	descDim := p.EmbWidth * axis
	prev = descDim
	for _, w := range p.FittingSizes() {
		total += prev*w + w
		prev = w
	}
	total += prev + 1 // output layer
	return total
}

// String renders the candidate compactly.
func (p Params) String() string {
	return fmt.Sprintf("%s emb=%v fit=%v", p.HParams, p.EmbeddingSizes(), p.FittingSizes())
}

// Representation returns the 11-gene bounds and mutation σ: Table 1 for
// the first seven genes, plus architecture ranges.  Width genes use a
// coarse σ so mutation explores architectures at a sensible granularity.
func Representation() (ea.Bounds, []float64) {
	rep := hpo.PaperRepresentation()
	bounds := append(ea.Bounds{}, rep.Bounds...)
	std := append([]float64{}, rep.Std...)
	bounds = append(bounds,
		ea.Interval{Lo: 8, Hi: 256},  // emb_width
		ea.Interval{Lo: 0, Hi: 3},    // emb_depth → {1,2,3}
		ea.Interval{Lo: 16, Hi: 512}, // fit_width
		ea.Interval{Lo: 0, Hi: 3},    // fit_depth → {1,2,3}
	)
	std = append(std, 12.0, 0.0625, 24.0, 0.0625)
	return bounds, std
}

// Decode converts an 11-gene genome into NAS parameters.
func Decode(g ea.Genome) (Params, error) {
	if len(g) != NumGenes {
		return Params{}, fmt.Errorf("nas: genome has %d genes, want %d", len(g), NumGenes)
	}
	base, err := hpo.Decode(g[:hpo.NumGenes])
	if err != nil {
		return Params{}, err
	}
	return Params{
		HParams:  base,
		EmbWidth: max(int(math.Round(g[GeneEmbWidth])), 4),
		EmbDepth: hpo.DecodeCategorical(g[GeneEmbDepth], 3) + 1,
		FitWidth: max(int(math.Round(g[GeneFitWidth])), 4),
		FitDepth: hpo.DecodeCategorical(g[GeneFitDepth], 3) + 1,
	}, nil
}

// Encode builds a genome decoding to the given parameters.
func Encode(p Params) (ea.Genome, error) {
	base, err := hpo.Encode(p.HParams)
	if err != nil {
		return nil, err
	}
	g := append(ea.Genome{}, base...)
	g = append(g,
		float64(p.EmbWidth),
		float64(p.EmbDepth-1)+0.5,
		float64(p.FitWidth),
		float64(p.FitDepth-1)+0.5,
	)
	return g, nil
}
