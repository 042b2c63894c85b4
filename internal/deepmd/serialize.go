package deepmd

import (
	"encoding/gob"
	"fmt"
	"io"
	"os"

	"repro/internal/descriptor"
	"repro/internal/nn"
)

// savedModel is the on-disk representation of a trained potential — the
// analogue of DeePMD-kit's frozen model file.  Activations are stored by
// name.  Weights holds every layer's W, then its B, in table order
// (layerTable): the parameter arena, cut at its tensor windows.
type savedModel struct {
	Format   string // "repro-deeppot"
	Version  int
	RCut     float64
	RCutSmth float64
	EmbSizes []int
	AxisN    int
	DescAct  string
	NSpecies int
	NbrNorm  float64
	FitSizes []int
	FitAct   string
	Bias     []float64
	Weights  [][]float64
}

const (
	modelFormat  = "repro-deeppot"
	modelVersion = 1
)

// Save serializes the trained model (configuration, biases and weights) —
// the `dp freeze` step of the DeePMD workflow.
func (m *Model) Save(w io.Writer) error {
	sm := savedModel{
		Format:   modelFormat,
		Version:  modelVersion,
		RCut:     m.Cfg.Descriptor.RCut,
		RCutSmth: m.Cfg.Descriptor.RCutSmth,
		EmbSizes: m.Cfg.Descriptor.EmbeddingSizes,
		AxisN:    m.Cfg.Descriptor.AxisNeurons,
		DescAct:  m.Cfg.Descriptor.Activation.Name(),
		NSpecies: m.Cfg.NumSpecies,
		NbrNorm:  m.Cfg.Descriptor.NeighborNorm,
		FitSizes: m.Cfg.FittingSizes,
		FitAct:   m.Cfg.FittingActivation.Name(),
		Bias:     m.Bias,
	}
	for _, l := range m.layers {
		sm.Weights = append(sm.Weights, l.W, l.B)
	}
	return gob.NewEncoder(w).Encode(&sm)
}

// SaveFile writes the model to path.
func (m *Model) SaveFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := m.Save(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// LoadModel reconstructs a model saved with Save into fresh arenas,
// drawing nothing; predictions are bit-identical to the original.  A file
// whose tensors do not match its own configuration is an error.
func LoadModel(r io.Reader) (*Model, error) {
	var sm savedModel
	if err := gob.NewDecoder(r).Decode(&sm); err != nil {
		return nil, fmt.Errorf("deepmd: decoding model: %w", err)
	}
	if sm.Format != modelFormat {
		return nil, fmt.Errorf("deepmd: not a frozen model (format %q)", sm.Format)
	}
	if sm.Version != modelVersion {
		return nil, fmt.Errorf("deepmd: unsupported model version %d", sm.Version)
	}
	descAct, err := nn.ActivationByName(sm.DescAct)
	if err != nil {
		return nil, err
	}
	fitAct, err := nn.ActivationByName(sm.FitAct)
	if err != nil {
		return nil, err
	}
	cfg := ModelConfig{
		Descriptor: descriptor.Config{
			RCut: sm.RCut, RCutSmth: sm.RCutSmth,
			EmbeddingSizes: sm.EmbSizes, AxisNeurons: sm.AxisN,
			Activation: descAct, NumSpecies: sm.NSpecies,
			NeighborNorm: sm.NbrNorm,
		},
		FittingSizes:      sm.FitSizes,
		FittingActivation: fitAct,
		NumSpecies:        sm.NSpecies,
	}
	// Check the tensors against the layer table before allocating, so a
	// file that does not match its own configuration is an error, never a
	// panic or an arena sized by a corrupt header.
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if len(sm.Bias) != cfg.NumSpecies {
		return nil, fmt.Errorf("deepmd: model has %d species biases, file has %d", cfg.NumSpecies, len(sm.Bias))
	}
	table := layerTable(cfg)
	if len(sm.Weights) != 2*len(table) {
		return nil, fmt.Errorf("deepmd: model has %d parameter tensors, file has %d", 2*len(table), len(sm.Weights))
	}
	for i, l := range table {
		for k, n := range [2]int{l.In * l.Out, l.Out} {
			if got := len(sm.Weights[2*i+k]); got != n {
				return nil, fmt.Errorf("deepmd: parameter tensor %d has %d values, file has %d", 2*i+k, n, got)
			}
		}
	}
	m := newModel(cfg)
	copy(m.Bias, sm.Bias)
	off := 0
	for _, w := range sm.Weights {
		off += copy(m.param[off:], w)
	}
	return m, nil
}

// LoadModelFile reads a frozen model from path.
func LoadModelFile(path string) (*Model, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return LoadModel(f)
}
