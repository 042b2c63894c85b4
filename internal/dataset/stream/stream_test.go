package stream

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"repro/internal/dataset"
	"repro/internal/npy"
)

// synthDataset builds a deterministic dataset whose every value encodes
// its own position, so a misrouted row or column is caught bit-exactly.
func synthDataset(natoms, nframes int) *dataset.Dataset {
	d := &dataset.Dataset{Types: make([]int, natoms)}
	for i := range d.Types {
		d.Types[i] = i % 3
	}
	for f := 0; f < nframes; f++ {
		fr := dataset.Frame{
			Coord:  make([]float64, 3*natoms),
			Force:  make([]float64, 3*natoms),
			Energy: -100.0 - float64(f),
			Box:    10.0 + float64(f)/16,
		}
		for k := range fr.Coord {
			fr.Coord[k] = float64(f) + float64(k)/1000
			fr.Force[k] = -float64(f) - float64(k)/1000
		}
		d.Frames = append(d.Frames, fr)
	}
	return d
}

func saveSynth(t *testing.T, natoms, nframes, framesPerSet int) (string, *dataset.Dataset) {
	t.Helper()
	d := synthDataset(natoms, nframes)
	dir := t.TempDir()
	if err := d.Save(dir, framesPerSet); err != nil {
		t.Fatal(err)
	}
	return dir, d
}

func sameFrame(t *testing.T, i int, got, want *dataset.Frame) {
	t.Helper()
	if math.Float64bits(got.Energy) != math.Float64bits(want.Energy) {
		t.Fatalf("frame %d: energy %v, want %v", i, got.Energy, want.Energy)
	}
	if math.Float64bits(got.Box) != math.Float64bits(want.Box) {
		t.Fatalf("frame %d: box %v, want %v", i, got.Box, want.Box)
	}
	if len(got.Coord) != len(want.Coord) || len(got.Force) != len(want.Force) {
		t.Fatalf("frame %d: size mismatch", i)
	}
	for k := range want.Coord {
		if math.Float64bits(got.Coord[k]) != math.Float64bits(want.Coord[k]) {
			t.Fatalf("frame %d: coord[%d] = %v, want %v", i, k, got.Coord[k], want.Coord[k])
		}
		if math.Float64bits(got.Force[k]) != math.Float64bits(want.Force[k]) {
			t.Fatalf("frame %d: force[%d] = %v, want %v", i, k, got.Force[k], want.Force[k])
		}
	}
}

// TestStreamMatchesSaved proves the streamed view of a multi-set system
// directory is bit-identical to the Dataset that was saved there: same
// frame order across set boundaries, same values, same mean energy.
func TestStreamMatchesSaved(t *testing.T) {
	dir, saved := saveSynth(t, 5, 11, 3) // 4 sets: 3+3+3+2 frames
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	if s.Len() != saved.Len() {
		t.Fatalf("Len = %d, want %d", s.Len(), saved.Len())
	}
	if got, want := s.AtomTypes(), saved.AtomTypes(); len(got) != len(want) {
		t.Fatalf("AtomTypes len = %d, want %d", len(got), len(want))
	} else {
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("AtomTypes[%d] = %d, want %d", i, got[i], want[i])
			}
		}
	}
	if math.Float64bits(s.MeanEnergy()) != math.Float64bits(saved.MeanEnergy()) {
		t.Fatalf("MeanEnergy = %v, want %v", s.MeanEnergy(), saved.MeanEnergy())
	}
	if st := s.Stats(); st.Sets != 4 {
		t.Fatalf("Sets = %d, want 4", st.Sets)
	}
	for i := 0; i < s.Len(); i++ {
		got, err := s.Frame(i)
		if err != nil {
			t.Fatalf("Frame(%d): %v", i, err)
		}
		sameFrame(t, i, got, &saved.Frames[i])
	}
}

// TestOutOfCoreEviction drives a store whose budget holds only two of
// eight frames through repeated full sweeps: the cache must evict, stay
// within budget, and keep serving bit-correct frames after re-reads.
func TestOutOfCoreEviction(t *testing.T) {
	const natoms, nframes = 4, 8
	dir, want := saveSynth(t, natoms, nframes, 4)
	budget := 2 * frameBytes(3*natoms)
	s, err := Open(dir, Options{CacheBytes: budget})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	if s.FrameBytes() <= budget {
		t.Fatalf("dataset %d B fits the %d B budget; test would not be out-of-core", s.FrameBytes(), budget)
	}
	for sweep := 0; sweep < 3; sweep++ {
		for i := 0; i < nframes; i++ {
			got, err := s.Frame(i)
			if err != nil {
				t.Fatalf("sweep %d frame %d: %v", sweep, i, err)
			}
			sameFrame(t, i, got, &want.Frames[i])
		}
	}
	st := s.Stats()
	if st.Evictions == 0 {
		t.Fatal("no evictions despite budget below dataset size")
	}
	if st.CachedBytes > budget {
		t.Fatalf("CachedBytes %d exceeds budget %d", st.CachedBytes, budget)
	}
	if st.Misses == 0 || st.Misses <= int64(nframes) {
		t.Fatalf("Misses = %d, want re-reads beyond the first sweep's %d", st.Misses, nframes)
	}

	// A frame just loaded must be a cache hit immediately after.
	before := s.Stats().Hits
	if _, err := s.Frame(nframes - 1); err != nil {
		t.Fatal(err)
	}
	if s.Stats().Hits != before+1 {
		t.Fatalf("expected a cache hit on the most recently loaded frame")
	}
}

// TestLRUEvictionOrder checks the recency discipline directly: eviction
// removes the coldest key, get refreshes recency, and add reports how
// many entries it displaced.
func TestLRUEvictionOrder(t *testing.T) {
	var c lruCache
	c.init(30) // room for three 10-byte entries
	fr := &dataset.Frame{}
	for _, k := range []int{1, 2, 3} {
		if ev := c.add(k, fr, 10); ev != 0 {
			t.Fatalf("add(%d) evicted %d entries under budget", k, ev)
		}
	}
	wantMRU(t, &c, []int{3, 2, 1})

	if _, ok := c.get(1); !ok {
		t.Fatal("get(1) missed a resident key")
	}
	wantMRU(t, &c, []int{1, 3, 2})

	// 2 is now coldest; adding 4 must evict exactly it.
	if ev := c.add(4, fr, 10); ev != 1 {
		t.Fatalf("add(4) evicted %d entries, want 1", ev)
	}
	wantMRU(t, &c, []int{4, 1, 3})
	if _, ok := c.get(2); ok {
		t.Fatal("evicted key 2 still resident")
	}

	// An oversized entry displaces everything else but stays resident
	// itself: a frame larger than the whole budget must still be servable.
	if ev := c.add(9, fr, 100); ev != 3 {
		t.Fatalf("oversized add evicted %d entries, want 3", ev)
	}
	wantMRU(t, &c, []int{9})
	if c.bytes != 100 {
		t.Fatalf("bytes = %d, want 100", c.bytes)
	}

	// Re-adding a resident key refreshes size and recency without growth.
	c.init(30)
	c.add(1, fr, 10)
	c.add(2, fr, 10)
	c.add(1, fr, 15)
	wantMRU(t, &c, []int{1, 2})
	if c.bytes != 25 {
		t.Fatalf("bytes after resize = %d, want 25", c.bytes)
	}
}

func wantMRU(t *testing.T, c *lruCache, want []int) {
	t.Helper()
	got := c.keysMRU()
	if len(got) != len(want) {
		t.Fatalf("keysMRU = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("keysMRU = %v, want %v", got, want)
		}
	}
	if c.len() != len(want) {
		t.Fatalf("len = %d, want %d", c.len(), len(want))
	}
}

// TestLRUProperties runs randomized add/get traffic against a naive
// reference model and checks after every operation that the cache agrees
// with the model on residency, recency order, byte accounting, and the
// budget invariant (bytes ≤ budget unless a single oversized entry).
func TestLRUProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 20; trial++ {
		budget := int64(rng.Intn(200) + 20)
		var c lruCache
		c.init(budget)
		ref := refLRU{budget: budget, sizes: map[int]int64{}}
		fr := &dataset.Frame{}

		for op := 0; op < 400; op++ {
			key := rng.Intn(12)
			if rng.Intn(3) == 0 {
				_, gotOK := c.get(key)
				if wantOK := ref.get(key); gotOK != wantOK {
					t.Fatalf("trial %d op %d: get(%d) = %v, model says %v", trial, op, key, gotOK, wantOK)
				}
			} else {
				size := int64(rng.Intn(60) + 1)
				ev := c.add(key, fr, size)
				if wantEv := ref.add(key, size); ev != wantEv {
					t.Fatalf("trial %d op %d: add(%d,%d) evicted %d, model says %d", trial, op, key, size, ev, wantEv)
				}
			}
			var sum int64
			for _, sz := range ref.sizes {
				sum += sz
			}
			if c.bytes != sum {
				t.Fatalf("trial %d op %d: bytes = %d, model sum %d", trial, op, c.bytes, sum)
			}
			if c.bytes > budget && c.len() != 1 {
				t.Fatalf("trial %d op %d: %d bytes over budget %d with %d entries", trial, op, c.bytes, budget, c.len())
			}
			got := c.keysMRU()
			if len(got) != len(ref.keys) {
				t.Fatalf("trial %d op %d: keysMRU = %v, model %v", trial, op, got, ref.keys)
			}
			for i := range got {
				if got[i] != ref.keys[i] {
					t.Fatalf("trial %d op %d: keysMRU = %v, model %v", trial, op, got, ref.keys)
				}
			}
		}
	}
}

// refLRU is the obviously-correct slice-based model the cache is checked
// against: keys held MRU-first, evicting from the back over budget.
type refLRU struct {
	budget int64
	keys   []int
	sizes  map[int]int64
}

func (r *refLRU) get(key int) bool {
	for i, k := range r.keys {
		if k == key {
			r.keys = append([]int{key}, append(r.keys[:i:i], r.keys[i+1:]...)...)
			return true
		}
	}
	return false
}

func (r *refLRU) add(key int, size int64) (evicted int) {
	r.get(key)
	if _, ok := r.sizes[key]; !ok {
		r.keys = append([]int{key}, r.keys...)
	}
	r.sizes[key] = size
	var sum int64
	for _, sz := range r.sizes {
		sum += sz
	}
	for sum > r.budget && len(r.keys) > 1 {
		last := r.keys[len(r.keys)-1]
		r.keys = r.keys[:len(r.keys)-1]
		sum -= r.sizes[last]
		delete(r.sizes, last)
		evicted++
	}
	return evicted
}

// TestConcurrentReaders hammers one out-of-core store from many reader
// goroutines on the same indices — the -race exercise for the LRU, the
// counters, concurrent misses on one frame, and the shared positioned
// file handles.  Every read counts as exactly one hit or one miss.
func TestConcurrentReaders(t *testing.T) {
	const natoms, nframes, readers, perReader = 4, 10, 8, 200
	dir, want := saveSynth(t, natoms, nframes, 3)
	s, err := Open(dir, Options{CacheBytes: 3 * frameBytes(3*natoms)})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	var wg sync.WaitGroup
	errs := make(chan error, readers)
	for g := 0; g < readers; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for it := 0; it < perReader; it++ {
				i := rng.Intn(nframes)
				fr, err := s.Frame(i)
				if err != nil {
					errs <- err
					return
				}
				// Spot-check one value per read; sameFrame would serialize
				// the goroutines on t's mutex in the failure path only.
				if fr.Energy != want.Frames[i].Energy || fr.Coord[0] != want.Frames[i].Coord[0] {
					t.Errorf("frame %d corrupted under concurrency", i)
					return
				}
			}
		}(int64(g + 1))
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if t.Failed() {
		return
	}
	st := s.Stats()
	if st.CachedBytes > st.CacheBudget {
		t.Fatalf("CachedBytes %d exceeds budget %d", st.CachedBytes, st.CacheBudget)
	}
	if got := st.Hits + st.Misses; got != readers*perReader {
		t.Fatalf("Hits %d + Misses %d = %d, want one per read (%d)", st.Hits, st.Misses, got, readers*perReader)
	}
	if st.Misses == 0 || st.Evictions == 0 {
		t.Fatalf("%d misses, %d evictions: the store was not out-of-core", st.Misses, st.Evictions)
	}
}

// TestOpenErrors covers the validation failures Open must reject instead
// of serving garbage frames later.
func TestOpenErrors(t *testing.T) {
	if _, err := Open(filepath.Join(t.TempDir(), "nope"), Options{}); err == nil {
		t.Fatal("Open of a missing directory succeeded")
	}

	// type.raw present but no set directories.
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "type.raw"), []byte("0\n1\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, Options{}); err == nil {
		t.Fatal("Open without set.* directories succeeded")
	}

	// Shard width disagreeing with type.raw.
	dir, _ = saveSynth(t, 4, 6, 0)
	if err := os.WriteFile(filepath.Join(dir, "type.raw"), []byte("0\n1\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, Options{}); err == nil {
		t.Fatal("Open with mismatched type.raw width succeeded")
	}

	// Force shape inconsistent with coord.
	dir, _ = saveSynth(t, 4, 6, 0)
	bad := npy.NewArray(6, 9)
	if err := npy.WriteFile(filepath.Join(dir, "set.000", "force.npy"), bad); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, Options{}); err == nil {
		t.Fatal("Open with inconsistent force shape succeeded")
	}

	// Energy count inconsistent with the frame count.
	dir, _ = saveSynth(t, 4, 6, 0)
	if err := npy.WriteFile(filepath.Join(dir, "set.000", "energy.npy"), npy.NewArray(2)); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, Options{}); err == nil {
		t.Fatal("Open with short energy array succeeded")
	}

	// Box not (nframes, 9).
	dir, _ = saveSynth(t, 4, 6, 0)
	if err := npy.WriteFile(filepath.Join(dir, "set.000", "box.npy"), npy.NewArray(6, 3)); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, Options{}); err == nil {
		t.Fatal("Open with malformed box shape succeeded")
	}

	// Missing array file.
	dir, _ = saveSynth(t, 4, 6, 0)
	if err := os.Remove(filepath.Join(dir, "set.000", "coord.npy")); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, Options{}); err == nil {
		t.Fatal("Open with a missing coord.npy succeeded")
	}
}

// TestOpenRefusesBadBox: a cell that is not a positive finite length
// trains with no periodic images, so Open refuses the set that holds
// one, naming it, instead of serving the frame.
func TestOpenRefusesBadBox(t *testing.T) {
	for _, b := range []float64{-10, 0, math.NaN(), math.Inf(1)} {
		dir, _ := saveSynth(t, 4, 6, 3)
		box := npy.NewArray(3, 9)
		for i := 0; i < 3; i++ {
			box.Data[9*i], box.Data[9*i+4], box.Data[9*i+8] = 10, 10, 10
		}
		box.Data[9] = b // frame 1 of set.001
		if err := npy.WriteFile(filepath.Join(dir, "set.001", "box.npy"), box); err != nil {
			t.Fatal(err)
		}
		s, err := Open(dir, Options{})
		if err == nil {
			s.Close()
			t.Fatalf("box %v: Open succeeded", b)
		}
		if !strings.Contains(err.Error(), "set.001") || !strings.Contains(err.Error(), "box") {
			t.Errorf("box %v: error %q does not name the set and the box", b, err)
		}
	}
}

// rawNpy builds an .npy file from a literal header dict and a zero
// payload of the given size: dtypes and layouts npy.Write never emits.
func rawNpy(header string, payload int) []byte {
	var buf bytes.Buffer
	buf.Write([]byte{0x93, 'N', 'U', 'M', 'P', 'Y', 1, 0})
	h := header + "\n"
	var hlen [2]byte
	binary.LittleEndian.PutUint16(hlen[:], uint16(len(h)))
	buf.Write(hlen[:])
	buf.WriteString(h)
	buf.Write(make([]byte, payload))
	return buf.Bytes()
}

// TestOpenRefusesUndecodableShards: a coord, force or box array that no
// frame read can decode (unsupported dtype, Fortran order) is refused at
// Open, not at the first Frame.
func TestOpenRefusesUndecodableShards(t *testing.T) {
	for _, tc := range []struct{ file, header string }{
		{"coord.npy", "{'descr': '<c8', 'fortran_order': False, 'shape': (6, 12), }"},
		{"coord.npy", "{'descr': '<f8', 'fortran_order': True, 'shape': (6, 12), }"},
		{"force.npy", "{'descr': '<c8', 'fortran_order': False, 'shape': (6, 12), }"},
		{"force.npy", "{'descr': '<f8', 'fortran_order': True, 'shape': (6, 12), }"},
		{"box.npy", "{'descr': '<c8', 'fortran_order': False, 'shape': (6, 9), }"},
		{"box.npy", "{'descr': '<f8', 'fortran_order': True, 'shape': (6, 9), }"},
	} {
		dir, _ := saveSynth(t, 4, 6, 0)
		if err := os.WriteFile(filepath.Join(dir, "set.000", tc.file), rawNpy(tc.header, 6*12*8), 0o644); err != nil {
			t.Fatal(err)
		}
		s, err := Open(dir, Options{})
		if err == nil {
			s.Close()
			t.Fatalf("%s %s: Open succeeded", tc.file, tc.header)
		}
	}
}

// TestCloseSemantics: reads after Close fail cleanly and Close is
// idempotent.
func TestCloseSemantics(t *testing.T) {
	dir, _ := saveSynth(t, 3, 4, 0)
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Frame(0); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Frame(1); err == nil {
		t.Fatal("Frame succeeded on a closed store")
	}
	if err := s.Close(); err != nil {
		t.Fatal("second Close returned an error")
	}

	if _, err := s.Frame(-1); err == nil {
		t.Fatal("negative index accepted")
	}
	if _, err := s.Frame(99); err == nil {
		t.Fatal("out-of-range index accepted")
	}
}
