package lint

import (
	"fmt"
	"go/token"
	"strings"
)

// Diagnostic is one finding.
type Diagnostic struct {
	Pos  token.Position
	Rule string
	Msg  string
}

// String renders the canonical file:line:col: rule: message form used
// in terminal output and golden tests.  The file path is
// printed as recorded in the fileset (the loader records paths relative
// to the module root).
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Rule, d.Msg)
}

// Analyzer is one named rule.  Every analyzer runs once over the whole
// program; the package-local rules visit its packages through
// ProgPass.inspect, the interprocedural ones walk the call graph.
type Analyzer struct {
	// Name is the rule ID used in diagnostics and //lint:ignore directives.
	Name string
	// Doc is a one-line description of the protected invariant.
	Doc string
	// Run inspects the program and reports findings via pass.Reportf.
	Run func(pass *ProgPass)
}

// All returns every analyzer in the suite, in stable order: the five
// package-local rules, then the three built on the call graph.
func All() []*Analyzer {
	return []*Analyzer{
		Determinism,
		FloatEq,
		CtxHygiene,
		LockDiscipline,
		ErrDiscard,
		GoroutineLeak,
		LockOrder,
		DetFlow,
	}
}

// registeredRules is the valid //lint:ignore rule namespace: every
// analyzer name plus the directive pseudo-rule itself.
func registeredRules() map[string]bool {
	rules := map[string]bool{"lint-directive": true}
	for _, a := range All() {
		rules[a.Name] = true
	}
	return rules
}

// ignoreDirective is one parsed //lint:ignore comment.
type ignoreDirective struct {
	file   string
	line   int // line the directive occupies
	rules  map[string]bool
	reason string
}

const ignorePrefix = "lint:ignore"

// parseIgnores scans a package's comments for //lint:ignore directives.
// Malformed directives (no rule, or no reason) and directives naming a
// rule that matches no registered analyzer are themselves reported as
// findings under the pseudo-rule "lint-directive", so a suppression can
// never silently fail to document itself — and a typo'd rule name can
// never silently suppress nothing while looking like it does.
func parseIgnores(pkg *Package) (dirs []ignoreDirective, bad []Diagnostic) {
	known := registeredRules()
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimPrefix(c.Text, "//")
				text = strings.TrimSpace(text)
				if !strings.HasPrefix(text, ignorePrefix) {
					continue
				}
				rest := strings.TrimSpace(strings.TrimPrefix(text, ignorePrefix))
				fields := strings.Fields(rest)
				pos := pkg.Fset.Position(c.Pos())
				if len(fields) < 2 {
					bad = append(bad, Diagnostic{
						Pos:  pos,
						Rule: "lint-directive",
						Msg:  "malformed //lint:ignore: want \"//lint:ignore <rule> <reason>\"",
					})
					continue
				}
				rules := map[string]bool{}
				for _, r := range strings.Split(fields[0], ",") {
					if !known[r] {
						// The unknown rule is reported and excluded from the
						// directive's rule set: it suppresses nothing.
						bad = append(bad, Diagnostic{
							Pos:  pos,
							Rule: "lint-directive",
							Msg:  fmt.Sprintf("//lint:ignore names unknown rule %q: no such analyzer is registered, so this suppresses nothing (did you mean one of go run ./cmd/lint -list?)", r),
						})
						continue
					}
					rules[r] = true
				}
				if len(rules) == 0 {
					continue
				}
				dirs = append(dirs, ignoreDirective{
					file:   pos.Filename,
					line:   pos.Line,
					rules:  rules,
					reason: strings.Join(fields[1:], " "),
				})
			}
		}
	}
	return dirs, bad
}
