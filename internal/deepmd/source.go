package deepmd

import "repro/internal/dataset"

// FrameSource is the sampling interface behind Train: anything that can
// hand out labeled frames by index over a fixed atom typing.  The two
// implementations are *dataset.Dataset (in-memory, never fails) and
// stream.Store (out-of-core shard reads).  Frames returned by a source
// are treated as immutable and may be shared; Train never writes to
// them.  Frame must be safe for concurrent calls: the data-parallel
// replicas of a training step and the frame pool of EvalErrorsSource
// read from several goroutines at once.
//
// Keeping sampling behind this interface is what lets the streamed and
// in-memory paths produce bit-identical training: Train consumes the
// same frame indices in the same order either way, and a conforming
// source returns value-identical frames for equal indices.
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

// Prefetcher is optionally implemented by sources that can overlap frame
// I/O with compute.  Train announces each step's sampled indices one
// step ahead; implementations load them in the background and must not
// block.
type Prefetcher interface {
	Prefetch(indices []int)
}
