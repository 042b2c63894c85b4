package lint

// Mini golden-test harness in the spirit of x/tools' analysistest
// (which we cannot depend on): each testdata/src/<case> directory is a
// standalone package and each testdata/prog/<case> a small program;
// comments of the form
//
//	// want "regexp"
//
// declare that a diagnostic matching the regexp must be reported on
// that line.  The harness fails on missing wants, unexpected
// diagnostics, and regexps that do not match what was reported — so any
// drift in an analyzer's output breaks its golden test.

import (
	"fmt"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

var wantRe = regexp.MustCompile(`//\s*want\s+(.*)$`)

// wantArgRe accepts either Go-string or backtick quoting for the
// expectation regexps; backticks avoid double-escaping.
var wantArgRe = regexp.MustCompile("`([^`]*)`|\"((?:[^\"\\\\]|\\\\.)*)\"")

type wantDiag struct {
	file string
	line int
	re   *regexp.Regexp
	hit  bool
}

// runGolden loads one fixture, runs the analyzers over it as a program,
// and checks the diagnostics against its // want comments.  A
// testdata/src/<name> fixture is one package; a testdata/prog/<name>
// fixture is a multi-package program (each subdirectory one package,
// importable by directory name).
func runGolden(t *testing.T, kind, name string, analyzers ...*Analyzer) {
	t.Helper()
	dir := filepath.Join("testdata", kind, name)
	var pkgs []*Package
	var err error
	if kind == "src" {
		var pkg *Package
		pkg, err = LoadDir(dir)
		pkgs = []*Package{pkg}
	} else {
		pkgs, err = LoadDirProgram(dir)
	}
	if err != nil {
		t.Fatalf("load %s: %v", dir, err)
	}
	checkWants(t, pkgs, NewProgram(pkgs).Run(analyzers))
}

// checkWants matches reported diagnostics against the // want comments
// across all fixture packages: every want must be hit on its line, and
// every diagnostic must be wanted.
func checkWants(t *testing.T, pkgs []*Package, diags []Diagnostic) {
	t.Helper()
	var wants []*wantDiag
	for _, pkg := range pkgs {
		for _, e := range pkg.TypeErrors {
			t.Errorf("type error in %s: %v", pkg.ImportPath, e)
		}
		for _, f := range pkg.Files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					m := wantRe.FindStringSubmatch(c.Text)
					if m == nil {
						continue
					}
					pos := pkg.Fset.Position(c.Pos())
					args := wantArgRe.FindAllStringSubmatch(m[1], -1)
					if len(args) == 0 {
						t.Fatalf("%s:%d: malformed want comment %q", pos.Filename, pos.Line, c.Text)
					}
					for _, a := range args {
						expr := a[1]
						if expr == "" {
							expr = a[2]
						}
						re, err := regexp.Compile(expr)
						if err != nil {
							t.Fatalf("%s:%d: bad want regexp %q: %v", pos.Filename, pos.Line, expr, err)
						}
						wants = append(wants, &wantDiag{file: pos.Filename, line: pos.Line, re: re})
					}
				}
			}
		}
	}

	for _, d := range diags {
		matched := false
		for _, w := range wants {
			if !w.hit && w.file == d.Pos.Filename && w.line == d.Pos.Line && w.re.MatchString(d.Rule+": "+d.Msg) {
				w.hit = true
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("unexpected diagnostic: %s", d.String())
		}
	}
	for _, w := range wants {
		if !w.hit {
			t.Errorf("%s:%d: no diagnostic matched want %q", w.file, w.line, w.re.String())
		}
	}
	if t.Failed() {
		t.Logf("all diagnostics:\n%s", formatDiags(diags))
	}
}

// formatDiags renders diagnostics one per line for test logs.
func formatDiags(diags []Diagnostic) string {
	var b strings.Builder
	for _, d := range diags {
		fmt.Fprintln(&b, d.String())
	}
	return b.String()
}

func TestGoldenDeterminism(t *testing.T)      { runGolden(t, "src", "determinism", Determinism) }
func TestGoldenDeterminismScope(t *testing.T) { runGolden(t, "src", "determinism_scope", Determinism) }
func TestGoldenFloatEq(t *testing.T)          { runGolden(t, "src", "floateq", FloatEq) }
func TestGoldenCtxHygiene(t *testing.T)       { runGolden(t, "src", "ctxhygiene", CtxHygiene) }
func TestGoldenLockDiscipline(t *testing.T)   { runGolden(t, "src", "lockdiscipline", LockDiscipline) }
func TestGoldenErrDiscard(t *testing.T)       { runGolden(t, "src", "errdiscard", ErrDiscard) }
func TestGoldenErrDiscardScope(t *testing.T)  { runGolden(t, "src", "errdiscard_scope", ErrDiscard) }
func TestGoldenGoroutineLeak(t *testing.T)    { runGolden(t, "prog", "goroutineleak", GoroutineLeak) }
func TestGoldenLockOrder(t *testing.T)        { runGolden(t, "prog", "lockorder", LockOrder) }
func TestGoldenDetFlow(t *testing.T)          { runGolden(t, "prog", "detflow", DetFlow) }

// TestAnalyzerNamesUnique guards the suppression namespace.
func TestAnalyzerNamesUnique(t *testing.T) {
	seen := map[string]bool{}
	for _, a := range All() {
		if a.Name == "" || a.Doc == "" {
			t.Errorf("analyzer %+v missing name or doc", a)
		}
		if seen[a.Name] {
			t.Errorf("duplicate analyzer name %q", a.Name)
		}
		seen[a.Name] = true
	}
}
