package deepmd

import "repro/internal/dataset"

// FrameSource is the sampling interface behind Train: anything that can
// hand out labeled frames by index over a fixed atom typing.  The two
// implementations are *dataset.Dataset (in-memory, never fails: what
// generators and tests hand the trainer directly) and stream.Store
// (shard reads: how every on-disk system directory is read).  Frames returned by a source
// are treated as immutable and may be shared; Train never writes to
// them.  Frame must be safe for concurrent calls: the data-parallel
// replicas of a training step and the frame pool of EvalErrorsSource
// read from several goroutines at once.  Train asks for each frame when
// a step needs it; a source loads nothing ahead.
//
// Keeping sampling behind this interface is what makes training on a
// saved directory bit-identical to training on the Dataset that was
// saved: Train consumes the same frame indices in the same order either
// way, and a conforming source returns value-identical frames for equal
// indices.
type FrameSource interface {
	// Len returns the number of frames.
	Len() int
	// AtomTypes returns the per-atom species indices, constant across
	// frames.
	AtomTypes() []int
	// Frame returns frame i (0 <= i < Len).
	Frame(i int) (*dataset.Frame, error)
	// MeanEnergy returns the mean frame energy accumulated in ascending
	// frame order — the bias-initialization statistic.
	MeanEnergy() float64
}
