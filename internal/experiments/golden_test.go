package experiments

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/golden fixtures from the current implementation")

// TestGoldenAll regenerates every paper artifact from the paper-scale
// campaign (PaperOptions, the defaults of `cmd/experiments`) and compares
// the bytes with testdata/golden/all.txt — the stdout of `go run
// ./cmd/experiments -exp all`.  The surrogate campaign does not touch the
// trainer, so this fence holds while the real trainer's arithmetic moves.
func TestGoldenAll(t *testing.T) {
	got, err := RenderAll(paperCampaign(t))
	if err != nil {
		t.Fatalf("RenderAll: %v", err)
	}
	path := filepath.Join("testdata", "golden", "all.txt")
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden fixture %s (run `go test ./internal/experiments -update-golden`): %v", path, err)
	}
	if got == string(want) {
		return
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gl) || i < len(wl); i++ {
		var g, w string
		if i < len(gl) {
			g = gl[i]
		}
		if i < len(wl) {
			w = wl[i]
		}
		if g != w {
			t.Fatalf("all.txt drifted (%d bytes, fixture %d): first difference at line %d:\n got: %q\nwant: %q\n"+
				"If the change is intentional, regenerate with `go test ./internal/experiments -update-golden`.",
				len(got), len(want), i+1, g, w)
		}
	}
}
