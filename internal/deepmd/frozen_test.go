package deepmd

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata fixtures from the current implementation")

var (
	frozenModelPath = filepath.Join("testdata", "frozen_model.gob")
	frozenEFPath    = filepath.Join("testdata", "frozen_model_ef.txt")
)

// frozenEF renders the energy and forces of m on three tinyData frames as
// exact hexadecimal floats, one value a line.
func frozenEF(t *testing.T, m *Model) []byte {
	t.Helper()
	d := tinyData(t, 3)
	var b bytes.Buffer
	for f := range d.Frames {
		fr := &d.Frames[f]
		e, forces := m.EnergyForces(fr.Coord, d.Types, fr.Box)
		fmt.Fprintf(&b, "frame %d energy %x\n", f, e)
		for k, v := range forces {
			fmt.Fprintf(&b, "frame %d force[%d] %x\n", f, k, v)
		}
	}
	return b.Bytes()
}

// TestFrozenModelGolden loads a small model frozen by an earlier build of
// this package and requires its energies and forces bit for bit, and a
// re-save of the loaded model byte for byte: the version-1 format
// (per-tensor Weights: each layer's W then B, in layer-table order) and
// the arithmetic that consumes it are both pinned.  -update-golden trains
// a fresh model for a few steps, freezes it and rewrites both fixtures.
func TestFrozenModelGolden(t *testing.T) {
	if *updateGolden {
		m := newTestModel(t, 41)
		d := tinyData(t, 8)
		train, val := d.Split(0.25)
		cfg := TrainConfig{
			Steps: 5, BatchSize: 2, StartLR: 0.005, StopLR: 1e-4,
			ScaleByWorker: "linear", Workers: 2, DispFreq: 5, Seed: 43,
		}
		if _, err := Train(context.Background(), m, train, val, cfg, nil); err != nil {
			t.Fatalf("Train: %v", err)
		}
		if err := m.SaveFile(frozenModelPath); err != nil {
			t.Fatal(err)
		}
	}
	raw, err := os.ReadFile(frozenModelPath)
	if err != nil {
		t.Fatalf("missing fixture (run `go test ./internal/deepmd -run FrozenModel -update-golden`): %v", err)
	}
	m, err := LoadModel(bytes.NewReader(raw))
	if err != nil {
		t.Fatalf("LoadModel: %v", err)
	}
	var resaved bytes.Buffer
	if err := m.Save(&resaved); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(resaved.Bytes(), raw) {
		t.Errorf("re-saving %s gives %d bytes that differ from the file's %d", frozenModelPath, resaved.Len(), len(raw))
	}

	got := frozenEF(t, m)
	if *updateGolden {
		if err := os.WriteFile(frozenEFPath, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(frozenEFPath)
	if err != nil {
		t.Fatalf("missing fixture (run `go test ./internal/deepmd -run FrozenModel -update-golden`): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("energies and forces of the frozen model drifted:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}
