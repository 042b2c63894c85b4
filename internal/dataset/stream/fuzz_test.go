package stream

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/npy"
)

// FuzzShardIndex feeds arbitrary bytes to the shard opener as the
// coord.npy of a set directory — twice per input: once with the other
// three arrays equally hostile, once alongside a well-formed 2-frame
// shard so a valid fuzzed coord reaches the positioned frame reads.
// Open must reject or serve, never panic, and anything it accepts must
// produce frames of the advertised width with a positive box.
func FuzzShardIndex(f *testing.F) {
	valid := func(shape []int, fill float64) []byte {
		a := npy.NewArray(shape...)
		for i := range a.Data {
			a.Data[i] = fill + float64(i)
		}
		var buf bytes.Buffer
		if err := npy.Write(&buf, a); err != nil {
			f.Fatal(err)
		}
		return buf.Bytes()
	}
	coordOK := valid([]int{2, 6}, 0.5)
	f.Add(coordOK)
	f.Add(coordOK[:len(coordOK)-7]) // truncated payload
	f.Add([]byte{})
	f.Add([]byte{0x93, 'N', 'U', 'M', 'P', 'Y', 1, 0})
	// Header whose shape claims more rows than the payload holds.
	f.Add(rawNpy("{'descr': '<f8', 'fortran_order': False, 'shape': (1000000, 6), }", 0))
	f.Add(rawNpy("{'descr': '<f8', 'fortran_order': False, 'shape': (2, 6), }", 0))

	forceOK := valid([]int{2, 6}, -3)
	energyOK := valid([]int{2}, -100)
	boxOK := valid([]int{2, 9}, 8)

	f.Fuzz(func(t *testing.T, in []byte) {
		for _, scenario := range []struct {
			name                    string
			coord, force, eng, bbox []byte
		}{
			{"all_fuzzed", in, in, in, in},
			{"coord_fuzzed", in, forceOK, energyOK, boxOK},
		} {
			dir := t.TempDir()
			if err := os.WriteFile(filepath.Join(dir, "type.raw"), []byte("0\n0\n"), 0o644); err != nil {
				t.Fatal(err)
			}
			set := filepath.Join(dir, "set.000")
			if err := os.MkdirAll(set, 0o755); err != nil {
				t.Fatal(err)
			}
			for name, b := range map[string][]byte{
				"coord.npy": scenario.coord, "force.npy": scenario.force,
				"energy.npy": scenario.eng, "box.npy": scenario.bbox,
			} {
				if err := os.WriteFile(filepath.Join(set, name), b, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			s, err := Open(dir, Options{CacheBytes: 1})
			if err != nil {
				continue
			}
			for i := 0; i < s.Len(); i++ {
				fr, err := s.Frame(i)
				if err != nil {
					continue
				}
				if len(fr.Coord) != 6 || len(fr.Force) != 6 {
					t.Fatalf("%s: accepted frame %d with %d coords / %d forces, want 6",
						scenario.name, i, len(fr.Coord), len(fr.Force))
				}
				if !(fr.Box > 0) {
					t.Fatalf("%s: served frame %d with box %v", scenario.name, i, fr.Box)
				}
			}
			if err := s.Close(); err != nil {
				t.Fatalf("%s: Close: %v", scenario.name, err)
			}
		}
	})
}
