package dataset_test

import (
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/dataset"
	"repro/internal/dataset/stream"
	"repro/internal/md"
)

func tinyDataset(t *testing.T, nFrames int) *dataset.Dataset {
	t.Helper()
	rng := rand.New(rand.NewSource(1))
	species := []md.Species{md.Al, md.Cl, md.Cl, md.Cl, md.K, md.Cl}
	pot := md.NewPaperBMH(4.0)
	return dataset.Generate(rng, species, 8.0, 498, pot, 0.5, 50, 5, nFrames)
}

func TestGenerateShapes(t *testing.T) {
	d := tinyDataset(t, 8)
	if d.Len() != 8 {
		t.Fatalf("Len = %d, want 8", d.Len())
	}
	if d.NAtoms() != 6 {
		t.Fatalf("NAtoms = %d, want 6", d.NAtoms())
	}
	if err := d.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	for i, f := range d.Frames {
		if f.Box != 8.0 {
			t.Errorf("frame %d box = %v", i, f.Box)
		}
		if f.Energy == 0 {
			t.Errorf("frame %d has zero energy", i)
		}
	}
}

func TestFramesDiffer(t *testing.T) {
	d := tinyDataset(t, 3)
	if d.Frames[0].Coord[0] == d.Frames[1].Coord[0] && d.Frames[0].Coord[1] == d.Frames[1].Coord[1] {
		t.Error("consecutive frames identical: trajectory not advancing")
	}
}

func TestShuffleDeterministic(t *testing.T) {
	d1 := tinyDataset(t, 10)
	d2 := tinyDataset(t, 10)
	d1.Shuffle(rand.New(rand.NewSource(42)))
	d2.Shuffle(rand.New(rand.NewSource(42)))
	for i := range d1.Frames {
		if d1.Frames[i].Energy != d2.Frames[i].Energy {
			t.Fatal("shuffle with same seed not deterministic")
		}
	}
}

func TestSplitFractions(t *testing.T) {
	d := tinyDataset(t, 20)
	train, val := d.Split(0.25)
	if train.Len() != 15 || val.Len() != 5 {
		t.Errorf("split sizes = %d/%d, want 15/5", train.Len(), val.Len())
	}
	if d.Len() != 20 {
		t.Error("Split modified the receiver")
	}
	// Edge cases.
	tr, v := d.Split(0)
	if tr.Len() != 20 || v.Len() != 0 {
		t.Error("Split(0) wrong")
	}
	tr, v = d.Split(1)
	if tr.Len() != 0 || v.Len() != 20 {
		t.Error("Split(1) wrong")
	}
}

// sameAsSaved requires the store opened on a saved directory to serve
// the saved dataset bit for bit: typing, frame count, mean energy and
// every frame in order.
func sameAsSaved(t *testing.T, s *stream.Store, d *dataset.Dataset) {
	t.Helper()
	if s.Len() != d.Len() || len(s.AtomTypes()) != d.NAtoms() {
		t.Fatalf("round trip sizes: %d/%d frames, %d/%d atoms", s.Len(), d.Len(), len(s.AtomTypes()), d.NAtoms())
	}
	for i, want := range d.AtomTypes() {
		if got := s.AtomTypes()[i]; got != want {
			t.Errorf("AtomTypes[%d] = %d, want %d", i, got, want)
		}
	}
	if math.Float64bits(s.MeanEnergy()) != math.Float64bits(d.MeanEnergy()) {
		t.Errorf("MeanEnergy = %v, want %v", s.MeanEnergy(), d.MeanEnergy())
	}
	for i := 0; i < d.Len(); i++ {
		g, err := s.Frame(i)
		if err != nil {
			t.Fatalf("Frame(%d): %v", i, err)
		}
		f, _ := d.Frame(i)
		if math.Float64bits(g.Energy) != math.Float64bits(f.Energy) || math.Float64bits(g.Box) != math.Float64bits(f.Box) {
			t.Errorf("frame %d scalar mismatch", i)
		}
		for k := range f.Coord {
			if math.Float64bits(g.Coord[k]) != math.Float64bits(f.Coord[k]) || math.Float64bits(g.Force[k]) != math.Float64bits(f.Force[k]) {
				t.Fatalf("frame %d array mismatch at %d", i, k)
			}
		}
	}
}

// openSaved reads a saved directory back through stream.Open, the one
// reader of the layout.
func openSaved(t *testing.T, dir string) *stream.Store {
	t.Helper()
	s, err := stream.Open(dir, stream.Options{})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	t.Cleanup(func() {
		if err := s.Close(); err != nil {
			t.Error(err)
		}
	})
	return s
}

func TestSaveLoadRoundTrip(t *testing.T) {
	d := tinyDataset(t, 6)
	dir := filepath.Join(t.TempDir(), "alkcl")
	if err := d.Save(dir, 0); err != nil {
		t.Fatalf("Save: %v", err)
	}
	sameAsSaved(t, openSaved(t, dir), d)
}

func TestSaveMultipleSets(t *testing.T) {
	d := tinyDataset(t, 10)
	dir := filepath.Join(t.TempDir(), "multiset")
	if err := d.Save(dir, 4); err != nil {
		t.Fatalf("Save: %v", err)
	}
	for _, set := range []string{"set.000", "set.001", "set.002"} {
		if _, err := os.Stat(filepath.Join(dir, set, "coord.npy")); err != nil {
			t.Errorf("missing %s: %v", set, err)
		}
	}
	s := openSaved(t, dir)
	if st := s.Stats(); st.Sets != 3 {
		t.Errorf("read %d sets, want 3", st.Sets)
	}
	sameAsSaved(t, s, d)
}

func TestLoadMissingDir(t *testing.T) {
	if _, err := stream.Open(filepath.Join(t.TempDir(), "nope"), stream.Options{}); err == nil {
		t.Error("Open of missing dir succeeded")
	}
}

func TestValidateCatchesCorruption(t *testing.T) {
	d := tinyDataset(t, 2)
	d.Frames[1].Coord = d.Frames[1].Coord[:3]
	if err := d.Validate(); err == nil {
		t.Error("Validate accepted truncated coords")
	}
	d = tinyDataset(t, 2)
	for _, b := range []float64{-1, math.NaN(), math.Inf(1)} {
		d.Frames[0].Box = b
		if err := d.Validate(); err == nil {
			t.Errorf("Validate accepted box %v", b)
		}
	}
	empty := &dataset.Dataset{}
	if err := empty.Validate(); err == nil {
		t.Error("Validate accepted empty types")
	}
}

func TestFrameFromSystemConsistent(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	sys := md.NewSystem(rng, []md.Species{md.K, md.Cl}, 6.0, 300)
	pot := md.NewPaperBMH(3.0)
	pot.Compute(sys)
	f := dataset.FrameFromSystem(sys)
	if math.Abs(f.Energy-sys.PotEng) > 1e-15 {
		t.Error("energy not copied")
	}
	if f.Coord[3] != sys.Pos[1][0] || f.Force[5] != sys.Frc[1][2] {
		t.Error("layout not atom-major xyz")
	}
}

func TestSplitAfterShuffleDisjointCoverage(t *testing.T) {
	d := tinyDataset(t, 12)
	// Tag frames by energy (unique with overwhelming probability).
	seen := map[float64]int{}
	for _, f := range d.Frames {
		seen[f.Energy]++
	}
	d.Shuffle(rand.New(rand.NewSource(9)))
	train, val := d.Split(0.25)
	got := map[float64]int{}
	for _, f := range train.Frames {
		got[f.Energy]++
	}
	for _, f := range val.Frames {
		got[f.Energy]++
	}
	if len(got) != len(seen) {
		t.Error("shuffle+split lost or duplicated frames")
	}
}
