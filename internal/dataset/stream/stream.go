// Package stream provides an out-of-core view of a DeePMD system
// directory (type.raw + set.NNN/*.npy shards): frames are read on demand
// through positioned npy row reads and held in a byte-budgeted LRU
// cache.  A Store implements the deepmd training FrameSource and starts
// no goroutine: a frame is a cache hit or one shard read on the caller's
// goroutine.  It is the one reader of the layout dataset.Save writes:
// frames come in the saved order (sets in sorted name order, rows in
// file order), so training on a saved directory is bit-identical to
// training on the in-memory Dataset that was saved.  Open checks every
// shard's shapes, dtypes and cells, so a set it accepts serves every
// frame unless the disk itself fails.
package stream

import (
	"errors"
	"fmt"
	"path/filepath"
	"sort"
	"sync"

	"repro/internal/dataset"
	"repro/internal/npy"
)

// DefaultCacheBytes is the frame-cache budget when Options.CacheBytes is
// unset: enough for small campaign datasets to stay fully resident while
// bounding memory on the paper's ~250k-frame workloads.
const DefaultCacheBytes = 256 << 20

// Options tunes a Store.
type Options struct {
	// CacheBytes is the LRU frame-cache budget; <= 0 means
	// DefaultCacheBytes.  A budget below the dataset size makes training
	// out-of-core: evicted frames are re-read from their shards on the
	// next sample.
	CacheBytes int64
}

// Stats is a snapshot of a Store's cache and I/O counters.
type Stats struct {
	Frames, Sets, NAtoms     int
	CacheBudget, CachedBytes int64
	Hits, Misses, Evictions  int64
}

// Store is an open system directory serving frames on demand.  All
// methods are safe for concurrent use.
type Store struct {
	dir    string
	types  []int
	shards []*shard
	starts []int // starts[k] = global index of shard k's first frame
	frames int
	width  int

	energies   []float64 // all frame energies, global order
	boxes      []float64 // all frame box sides, global order
	meanEnergy float64

	mu     sync.Mutex
	cache  lruCache
	stats  Stats
	closed bool

	bufs sync.Pool // *[]byte read scratch
}

// Open opens a system directory for streaming.  The frame index (set
// layout, npy headers) and the per-frame energies and boxes are loaded
// eagerly; coordinates and forces stay on disk until requested.
func Open(dir string, opts Options) (*Store, error) {
	types, err := readTypes(filepath.Join(dir, "type.raw"))
	if err != nil {
		return nil, err
	}
	if len(types) == 0 {
		return nil, fmt.Errorf("stream: %s: empty type.raw", dir)
	}
	setDirs, err := discoverSets(dir)
	if err != nil {
		return nil, err
	}
	if len(setDirs) == 0 {
		return nil, fmt.Errorf("stream: no set.* directories in %s", dir)
	}
	s := &Store{
		dir:   dir,
		types: types,
		width: 3 * len(types),
	}
	for _, sd := range setDirs {
		sh, err := s.openShard(sd)
		if err != nil {
			if cerr := s.closeShards(); cerr != nil && err == nil {
				err = cerr
			}
			return nil, err
		}
		s.starts = append(s.starts, s.frames)
		s.shards = append(s.shards, sh)
		s.frames += sh.frames
	}
	// Mean in global frame order, the accumulation order of the
	// in-memory Dataset.MeanEnergy, so the training bias (and with it
	// every downstream byte) agrees between the two sources.
	if s.frames > 0 {
		mean := 0.0
		for _, e := range s.energies {
			mean += e
		}
		s.meanEnergy = mean / float64(s.frames)
	}

	budget := opts.CacheBytes
	if budget <= 0 {
		budget = DefaultCacheBytes
	}
	s.cache.init(budget)
	s.stats.CacheBudget = budget
	s.bufs.New = func() any { b := make([]byte, 8*s.width); return &b }
	return s, nil
}

// Len returns the total frame count across all sets.
func (s *Store) Len() int { return s.frames }

// AtomTypes returns the per-atom species indices.
func (s *Store) AtomTypes() []int { return s.types }

// MeanEnergy returns the mean frame energy (accumulated in frame order).
func (s *Store) MeanEnergy() float64 { return s.meanEnergy }

// FrameBytes returns the in-memory size of the full frame set: what the
// cache would hold with every frame resident.  Comparing it against the
// cache budget shows whether a run is out-of-core.
func (s *Store) FrameBytes() int64 {
	return int64(s.frames) * frameBytes(s.width)
}

// frameBytes is the accounted cache cost of one frame: coordinate and
// force payloads plus slice/struct overhead.
func frameBytes(width int) int64 { return int64(16*width) + 64 }

// Frame returns frame i, serving it from the cache when resident and
// reading it from its shard otherwise.  The returned frame is shared and
// immutable: callers must not modify it, and it stays valid after
// eviction (eviction only drops the cache's reference).  Concurrent
// misses on one frame each read it; the last read to finish is the one
// the cache keeps.
func (s *Store) Frame(i int) (*dataset.Frame, error) {
	if i < 0 || i >= s.frames {
		return nil, fmt.Errorf("stream: frame %d out of range [0, %d)", i, s.frames)
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil, errors.New("stream: store is closed")
	}
	if fr, ok := s.cache.get(i); ok {
		s.stats.Hits++
		s.mu.Unlock()
		return fr, nil
	}
	s.stats.Misses++
	s.mu.Unlock()

	fr, err := s.load(i)
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	s.stats.Evictions += int64(s.cache.add(i, fr, frameBytes(s.width)))
	s.mu.Unlock()
	return fr, nil
}

// load reads frame i from its shard.  It runs outside the store mutex;
// the npy row reads are positioned, so concurrent loads share the file
// handles safely.
func (s *Store) load(i int) (*dataset.Frame, error) {
	k := sort.Search(len(s.starts), func(k int) bool { return s.starts[k] > i }) - 1
	sh := s.shards[k]
	row := i - s.starts[k]

	fr := &dataset.Frame{
		Coord:  make([]float64, s.width),
		Force:  make([]float64, s.width),
		Energy: s.energies[i],
		Box:    s.boxes[i],
	}
	bufp := s.bufs.Get().(*[]byte)
	buf := *bufp
	var err error
	if buf, err = npy.ReadRowsAt(sh.coordF, sh.coordH, row, 1, fr.Coord, buf); err == nil {
		buf, err = npy.ReadRowsAt(sh.forceF, sh.forceH, row, 1, fr.Force, buf)
	}
	*bufp = buf
	s.bufs.Put(bufp)
	if err != nil {
		return nil, fmt.Errorf("stream: frame %d (%s row %d): %w", i, sh.dir, row, err)
	}
	return fr, nil
}

// Stats returns a snapshot of the cache and I/O counters.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.stats
	st.Frames, st.Sets, st.NAtoms = s.frames, len(s.shards), len(s.types)
	st.CachedBytes = s.cache.bytes
	return st
}

// Close closes every shard handle.  Reads after Close fail; a second
// Close is a no-op.
func (s *Store) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	s.mu.Unlock()
	return s.closeShards()
}

func (s *Store) closeShards() error {
	var firstErr error
	for _, sh := range s.shards {
		if err := sh.close(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}
