// Package dataset converts MD trajectories into DeePMD-style training
// datasets.  The paper converted CP2K FPMD output to "energy, force, box
// values in Numpy arrays using in-house scripts", shuffled the frames,
// and withheld 25 % for validation (§2.1.3); this package is the Go
// version of those in-house scripts, writing the exact DeePMD on-disk
// layout: a system directory with `type.raw` plus `set.NNN`
// subdirectories containing coord.npy, energy.npy, force.npy and
// box.npy.  Package dataset/stream is the one reader of that layout.
package dataset

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/md"
	"repro/internal/npy"
)

// Frame is one labeled configuration: coordinates with their reference
// energy and forces, plus the (cubic) box.
type Frame struct {
	Coord  []float64 // 3N coordinates, Å, atom-major [x0 y0 z0 x1 …]
	Force  []float64 // 3N forces, eV/Å
	Energy float64   // total potential energy, eV
	Box    float64   // cubic box side, Å
}

// Dataset is a collection of frames over a fixed atom typing.
type Dataset struct {
	Types  []int // per-atom species index, constant across frames
	Frames []Frame
}

// NAtoms returns the number of atoms per frame.
func (d *Dataset) NAtoms() int { return len(d.Types) }

// Len returns the number of frames.
func (d *Dataset) Len() int { return len(d.Frames) }

// Frame returns frame i.  Together with AtomTypes and MeanEnergy this
// makes *Dataset the in-memory implementation of the deepmd training
// FrameSource; the error is always nil here and exists for out-of-core
// sources whose reads can fail.
func (d *Dataset) Frame(i int) (*Frame, error) { return &d.Frames[i], nil }

// AtomTypes returns the per-atom species indices (method form of the
// Types field, for the FrameSource contract).
func (d *Dataset) AtomTypes() []int { return d.Types }

// MeanEnergy returns the mean frame energy, accumulated in frame order.
func (d *Dataset) MeanEnergy() float64 {
	if len(d.Frames) == 0 {
		return 0
	}
	mean := 0.0
	for _, f := range d.Frames {
		mean += f.Energy
	}
	return mean / float64(len(d.Frames))
}

// FrameFromSystem snapshots an MD system (forces and energy must be
// current) into a Frame.
func FrameFromSystem(sys *md.System) Frame {
	n := sys.N()
	f := Frame{
		Coord:  make([]float64, 3*n),
		Force:  make([]float64, 3*n),
		Energy: sys.PotEng,
		Box:    sys.Box,
	}
	for i := 0; i < n; i++ {
		for k := 0; k < 3; k++ {
			f.Coord[3*i+k] = sys.Pos[i][k]
			f.Force[3*i+k] = sys.Frc[i][k]
		}
	}
	return f
}

// TypesFromSystem extracts the per-atom species indices.
func TypesFromSystem(sys *md.System) []int {
	out := make([]int, sys.N())
	for i, s := range sys.Species {
		out[i] = int(s)
	}
	return out
}

// Shuffle permutes the frames in place with the given source of
// randomness.
func (d *Dataset) Shuffle(rng *rand.Rand) {
	rng.Shuffle(len(d.Frames), func(i, j int) {
		d.Frames[i], d.Frames[j] = d.Frames[j], d.Frames[i]
	})
}

// PaperValFraction is the paper's validation split: a quarter of the
// shuffled frames is withheld for validation (§2.1).  Every shipped binary
// and example that splits a dataset reads it.
const PaperValFraction = 0.25

// Split divides the dataset into training and validation subsets, with
// valFraction (PaperValFraction in the paper) of the frames withheld for
// validation.
// The receiver is unchanged; subsets share frame storage.
func (d *Dataset) Split(valFraction float64) (train, val *Dataset) {
	nVal := int(float64(len(d.Frames)) * valFraction)
	if nVal < 0 {
		nVal = 0
	}
	if nVal > len(d.Frames) {
		nVal = len(d.Frames)
	}
	nTrain := len(d.Frames) - nVal
	train = &Dataset{Types: d.Types, Frames: d.Frames[:nTrain]}
	val = &Dataset{Types: d.Types, Frames: d.Frames[nTrain:]}
	return train, val
}

// Validate checks internal consistency.  Its box check is the one
// stream.Open applies, so a dataset Save accepts is one Open serves.
func (d *Dataset) Validate() error {
	n := d.NAtoms()
	if n == 0 {
		return fmt.Errorf("dataset: no atom types")
	}
	for i, f := range d.Frames {
		if len(f.Coord) != 3*n {
			return fmt.Errorf("dataset: frame %d has %d coords, want %d", i, len(f.Coord), 3*n)
		}
		if len(f.Force) != 3*n {
			return fmt.Errorf("dataset: frame %d has %d forces, want %d", i, len(f.Force), 3*n)
		}
		if !(f.Box > 0) || math.IsInf(f.Box, 1) {
			return fmt.Errorf("dataset: frame %d has box %v, want a positive finite side", i, f.Box)
		}
	}
	return nil
}

// Save writes the dataset as a DeePMD system directory:
//
//	dir/type.raw        one species index per line
//	dir/set.000/coord.npy   (nframes, 3N) float64
//	dir/set.000/energy.npy  (nframes,)    float64
//	dir/set.000/force.npy   (nframes, 3N) float64
//	dir/set.000/box.npy     (nframes, 9)  float64 (diagonal cubic cells)
//
// Frames are divided into sets of at most framesPerSet (DeePMD
// convention); pass 0 to put everything in set.000.
func (d *Dataset) Save(dir string, framesPerSet int) error {
	if err := d.Validate(); err != nil {
		return err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	var sb strings.Builder
	for _, t := range d.Types {
		fmt.Fprintln(&sb, t)
	}
	if err := os.WriteFile(filepath.Join(dir, "type.raw"), []byte(sb.String()), 0o644); err != nil {
		return err
	}
	if framesPerSet <= 0 {
		framesPerSet = len(d.Frames)
		if framesPerSet == 0 {
			framesPerSet = 1
		}
	}
	for set, start := 0, 0; start < len(d.Frames); set, start = set+1, start+framesPerSet {
		end := start + framesPerSet
		if end > len(d.Frames) {
			end = len(d.Frames)
		}
		if err := d.saveSet(filepath.Join(dir, fmt.Sprintf("set.%03d", set)), d.Frames[start:end]); err != nil {
			return err
		}
	}
	return nil
}

func (d *Dataset) saveSet(dir string, frames []Frame) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	n := d.NAtoms()
	nf := len(frames)
	coord := npy.NewArray(nf, 3*n)
	force := npy.NewArray(nf, 3*n)
	energy := npy.NewArray(nf)
	box := npy.NewArray(nf, 9)
	for i, f := range frames {
		copy(coord.Data[i*3*n:(i+1)*3*n], f.Coord)
		copy(force.Data[i*3*n:(i+1)*3*n], f.Force)
		energy.Data[i] = f.Energy
		box.Data[i*9+0] = f.Box
		box.Data[i*9+4] = f.Box
		box.Data[i*9+8] = f.Box
	}
	files := map[string]*npy.Array{
		"coord.npy": coord, "force.npy": force, "energy.npy": energy, "box.npy": box,
	}
	for name, arr := range files {
		if err := npy.WriteFile(filepath.Join(dir, name), arr); err != nil {
			return fmt.Errorf("dataset: writing %s: %w", name, err)
		}
	}
	return nil
}

// Generate runs an MD trajectory under a thermostat and collects frames:
// the end-to-end substitute for the paper's CP2K FPMD data generation.
// equilSteps are discarded, then nFrames snapshots are taken every
// sampleEvery steps.
func Generate(rng *rand.Rand, species []md.Species, box, temperature float64, pot md.Potential,
	dt float64, equilSteps, sampleEvery, nFrames int) *Dataset {

	sys := md.NewSystem(rng, species, box, temperature)
	thermo := md.Langevin{T: temperature, Gamma: 0.02, Rng: rng}
	it := md.NewIntegrator(pot, thermo, dt)
	it.Run(sys, equilSteps, 0, nil)

	d := &Dataset{Types: TypesFromSystem(sys)}
	it.Run(sys, sampleEvery*nFrames, sampleEvery, func(step int) {
		d.Frames = append(d.Frames, FrameFromSystem(sys))
	})
	return d
}
