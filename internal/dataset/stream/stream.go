// Package stream provides an out-of-core view of a DeePMD system
// directory (type.raw + set.NNN/*.npy shards): frames are read on demand
// through positioned npy row reads, held in a byte-budgeted LRU cache,
// and optionally prefetched by a background worker that overlaps shard
// I/O with training compute.  A Store implements the deepmd training
// FrameSource.  It is the one reader of the layout dataset.Save writes:
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
	// Prefetch is the background prefetch queue depth; 0 disables the
	// prefetch worker (loads then happen synchronously on Frame).
	Prefetch int
}

// Stats is a snapshot of a Store's cache and I/O counters.
type Stats struct {
	Frames, Sets, NAtoms                                int
	CacheBudget, CachedBytes                            int64
	Hits, Misses, Evictions, Prefetched, PrefetchErrors int64
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

	mu       sync.Mutex
	cache    lruCache
	inflight map[int]*inflightLoad
	stats    Stats
	closed   bool

	bufs sync.Pool // *[]byte read scratch

	pfCh   chan int
	pfStop chan struct{}
	pfWG   sync.WaitGroup
}

// inflightLoad deduplicates concurrent loads of one frame: the first
// caller reads the shard, everyone else waits on done.
type inflightLoad struct {
	done chan struct{}
	fr   *dataset.Frame
	err  error
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
		dir:      dir,
		types:    types,
		width:    3 * len(types),
		inflight: make(map[int]*inflightLoad),
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

	if opts.Prefetch > 0 {
		s.pfCh = make(chan int, opts.Prefetch)
		s.pfStop = make(chan struct{})
		s.pfWG.Add(1)
		go s.prefetchLoop()
	}
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
// eviction (eviction only drops the cache's reference).
func (s *Store) Frame(i int) (*dataset.Frame, error) {
	if i < 0 || i >= s.frames {
		return nil, fmt.Errorf("stream: frame %d out of range [0, %d)", i, s.frames)
	}
	return s.frame(i, false)
}

func (s *Store) frame(i int, prefetch bool) (*dataset.Frame, error) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil, errors.New("stream: store is closed")
	}
	if fr, ok := s.cache.get(i); ok {
		if !prefetch {
			s.stats.Hits++
		}
		s.mu.Unlock()
		return fr, nil
	}
	if c, ok := s.inflight[i]; ok {
		if !prefetch {
			s.stats.Misses++
		}
		s.mu.Unlock()
		<-c.done
		return c.fr, c.err
	}
	c := &inflightLoad{done: make(chan struct{})}
	s.inflight[i] = c
	if prefetch {
		s.stats.Prefetched++
	} else {
		s.stats.Misses++
	}
	s.mu.Unlock()

	c.fr, c.err = s.load(i)

	s.mu.Lock()
	delete(s.inflight, i)
	if c.err == nil {
		s.stats.Evictions += int64(s.cache.add(i, c.fr, frameBytes(s.width)))
		s.stats.CachedBytes = s.cache.bytes
	}
	s.mu.Unlock()
	close(c.done)
	return c.fr, c.err
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

// Prefetch queues frames for background loading.  It never blocks: when
// the queue is full the remaining indices are dropped (they will load
// synchronously when sampled).  No-op without a prefetch worker.
func (s *Store) Prefetch(indices []int) {
	if s.pfCh == nil {
		return
	}
	for _, i := range indices {
		if i < 0 || i >= s.frames {
			continue
		}
		select {
		case s.pfCh <- i:
		default:
			return
		}
	}
}

func (s *Store) prefetchLoop() {
	defer s.pfWG.Done()
	for {
		select {
		case <-s.pfStop:
			return
		case i := <-s.pfCh:
			if _, err := s.frame(i, true); err != nil {
				// The error will resurface on the synchronous read;
				// here it is only counted.
				s.mu.Lock()
				s.stats.PrefetchErrors++
				s.mu.Unlock()
			}
		}
	}
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

// Close stops the prefetch worker and closes every shard handle.
func (s *Store) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	s.mu.Unlock()
	if s.pfStop != nil {
		close(s.pfStop)
		s.pfWG.Wait()
	}
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
