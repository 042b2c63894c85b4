package stream

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"repro/internal/npy"
)

// shard is one open set.NNN directory: positioned-read handles plus the
// parsed npy headers for the per-frame coord and force arrays.
type shard struct {
	dir    string
	frames int

	coordF, forceF *os.File
	coordH, forceH *npy.Header
}

func (sh *shard) close() error {
	var firstErr error
	for _, f := range []*os.File{sh.coordF, sh.forceF} {
		if f == nil {
			continue
		}
		if err := f.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// openShard opens one set directory of s and validates its shape
// contract: coord and force are (nframes, 3N) in a dtype ReadRowsAt
// decodes, energy holds nframes values, box is (nframes, 9) with a
// positive, finite side.  Every check a frame read could fail on, short
// of the disk itself, is made here.  The set's energies and box sides
// (one float each per frame: cheap, and the energies are needed whole
// for the mean-energy bias) are appended to s.energies and s.boxes.
func (s *Store) openShard(dir string) (*shard, error) {
	sh := &shard{dir: dir}
	var err error
	if sh.coordF, sh.coordH, err = openArray(filepath.Join(dir, "coord.npy")); err != nil {
		return nil, sh.closeOnErr(err)
	}
	if sh.forceF, sh.forceH, err = openArray(filepath.Join(dir, "force.npy")); err != nil {
		return nil, sh.closeOnErr(err)
	}
	energy, err := npy.ReadFile(filepath.Join(dir, "energy.npy"))
	if err != nil {
		return nil, sh.closeOnErr(err)
	}
	box, err := npy.ReadFile(filepath.Join(dir, "box.npy"))
	if err != nil {
		return nil, sh.closeOnErr(err)
	}

	ch, fh := sh.coordH, sh.forceH
	if len(ch.Shape) != 2 || len(fh.Shape) != 2 {
		return nil, sh.closeOnErr(fmt.Errorf("stream: coord/force must be 2-D in %s", dir))
	}
	sh.frames = ch.Shape[0]
	if ch.Shape[1] != s.width {
		return nil, sh.closeOnErr(fmt.Errorf("stream: %s has frame width %d, want %d", dir, ch.Shape[1], s.width))
	}
	if fh.Shape[0] != sh.frames || fh.Shape[1] != s.width {
		return nil, sh.closeOnErr(fmt.Errorf("stream: force shape %v inconsistent with coord %v in %s", fh.Shape, ch.Shape, dir))
	}
	if len(energy.Shape) < 1 || energy.Shape[0] != sh.frames || len(energy.Data) < sh.frames {
		return nil, sh.closeOnErr(fmt.Errorf("stream: energy shape %v inconsistent with %d frames in %s", energy.Shape, sh.frames, dir))
	}
	if len(box.Shape) != 2 || box.Shape[0] != sh.frames || box.Shape[1] != 9 {
		return nil, sh.closeOnErr(fmt.Errorf("stream: box shape %v, want (%d, 9) in %s", box.Shape, sh.frames, dir))
	}
	for i := 0; i < sh.frames; i++ {
		// A cell that is not a positive finite length has no periodic
		// images: neighbor.MinImage would leave every distance as is.
		b := box.Data[9*i]
		if !(b > 0) || math.IsInf(b, 1) {
			return nil, sh.closeOnErr(fmt.Errorf("stream: %s: frame %d has box %v, want a positive finite side", dir, i, b))
		}
		s.boxes = append(s.boxes, b)
	}
	s.energies = append(s.energies, energy.Data[:sh.frames]...)
	return sh, nil
}

// closeOnErr closes whatever handles are open and returns the original
// error — the open/validation failure is the actionable one.
func (sh *shard) closeOnErr(err error) error {
	if cerr := sh.close(); cerr != nil && err == nil {
		err = cerr
	}
	return err
}

// openArray opens an .npy file for positioned reads, parses its header
// and checks that its rows can be decoded.  The returned file's read
// offset sits past the header, which is irrelevant: all payload access
// goes through ReadAt.
func openArray(path string) (*os.File, *npy.Header, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, err
	}
	h, err := npy.ReadHeader(f)
	if err == nil {
		err = h.Check()
	}
	if err != nil {
		//lint:ignore errdiscard error-path close: the header error being returned is the actionable one
		f.Close()
		return nil, nil, fmt.Errorf("stream: %s: %w", path, err)
	}
	return f, h, nil
}

// readTypes reads a type.raw file: one species index per line, blank
// lines skipped.
func readTypes(path string) ([]int, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var types []int
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		t, err := strconv.Atoi(line)
		if err != nil {
			return nil, fmt.Errorf("stream: bad type.raw line %q: %w", line, err)
		}
		types = append(types, t)
	}
	return types, sc.Err()
}

// discoverSets lists the set.NNN subdirectories of a system directory in
// sorted name order, the order dataset.Save numbers them in, so global
// frame indices are the saved dataset's frame indices.
func discoverSets(dir string) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var sets []string
	for _, e := range entries {
		if !e.IsDir() || !strings.HasPrefix(e.Name(), "set.") {
			continue
		}
		sets = append(sets, filepath.Join(dir, e.Name()))
	}
	sort.Strings(sets)
	return sets, nil
}
