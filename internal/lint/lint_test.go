package lint

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// writePkg materializes a throwaway single-file package and loads it.
func writePkg(t *testing.T, src string) *Package {
	t.Helper()
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "p.go"), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	pkg, err := LoadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	return pkg
}

// TestMalformedIgnoreDirective: a reasonless //lint:ignore suppresses
// nothing and is itself reported, so a suppression can never silently
// fail to document itself.
func TestMalformedIgnoreDirective(t *testing.T) {
	pkg := writePkg(t, `package nsga2

import "time"

func f() time.Time {
	//lint:ignore determinism
	return time.Now()
}
`)
	diags := NewProgram([]*Package{pkg}).Run([]*Analyzer{Determinism})
	var rules []string
	for _, d := range diags {
		rules = append(rules, d.Rule)
	}
	joined := strings.Join(rules, ",")
	if !strings.Contains(joined, "lint-directive") {
		t.Errorf("malformed directive not reported; got rules %q", joined)
	}
	if !strings.Contains(joined, "determinism") {
		t.Errorf("reasonless directive must not suppress; got rules %q", joined)
	}
}

// TestUnknownRuleIgnoreDirective: a //lint:ignore naming a rule that
// matches no registered analyzer is reported under lint-directive and
// suppresses nothing — a typo'd rule name can never look like a valid
// suppression while protecting nothing.
func TestUnknownRuleIgnoreDirective(t *testing.T) {
	pkg := writePkg(t, `package nsga2

import "time"

func f() time.Time {
	//lint:ignore determinsm typo'd rule name must not suppress
	return time.Now()
}

func g() time.Time {
	//lint:ignore determinism,bogusrule the valid half still suppresses
	return time.Now()
}
`)
	diags := NewProgram([]*Package{pkg}).Run([]*Analyzer{Determinism})
	var badMsgs, rules []string
	for _, d := range diags {
		rules = append(rules, d.Rule)
		if d.Rule == "lint-directive" {
			badMsgs = append(badMsgs, d.Msg)
		}
	}
	joined := strings.Join(rules, ",")
	if got := strings.Count(joined, "lint-directive"); got != 2 {
		t.Errorf("want 2 lint-directive findings (one per unknown rule), got %d:\n%s", got, formatDiags(diags))
	}
	for _, m := range badMsgs {
		if !strings.Contains(m, "unknown rule") {
			t.Errorf("lint-directive finding does not name the unknown rule: %q", m)
		}
	}
	// f's finding survives (its directive was all-typo); g's is suppressed
	// by the valid half of its comma list.
	if !strings.Contains(joined, "determinism") {
		t.Errorf("typo'd directive must not suppress f's finding; got rules %q", joined)
	}
	if got := strings.Count(joined, "determinism"); got != 1 {
		t.Errorf("want exactly 1 surviving determinism finding (g suppressed), got %d:\n%s", got, formatDiags(diags))
	}
}

// TestIgnoreSameLineAndLineAbove pins the two accepted placements.
func TestIgnoreSameLineAndLineAbove(t *testing.T) {
	pkg := writePkg(t, `package nsga2

import "time"

func f() time.Time {
	return time.Now() //lint:ignore determinism same-line suppression
}

func g() time.Time {
	//lint:ignore determinism line-above suppression
	return time.Now()
}

func h() time.Time {
	//lint:ignore floateq wrong rule does not suppress determinism
	return time.Now()
}
`)
	diags := NewProgram([]*Package{pkg}).Run([]*Analyzer{Determinism})
	if len(diags) != 1 {
		t.Fatalf("want exactly the wrong-rule finding to survive, got:\n%s", formatDiags(diags))
	}
	if line := diags[0].Pos.Line; line != 16 {
		t.Errorf("surviving finding at line %d, want 16 (inside h)", line)
	}
}
