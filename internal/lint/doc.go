// Package lint is a project-native static-analysis suite built on the
// standard library's go/ast and go/types only (no x/tools dependency).
// It enforces invariants that go vet cannot see but that the campaign
// semantics depend on: bit-identical determinism in the numeric
// packages, no exact float comparisons outside a small allowlist,
// context hygiene in the distributed plane, lock discipline, no
// silently dropped I/O errors on the persistence paths — and, across
// the call graph, goroutine teardown, cross-package lock ordering and
// interprocedural determinism taint.  The 0-allocs/op contract of the
// steady-state paths is not a rule here: testing.AllocsPerRun tests
// hold it, each named in the doc comment of the function it pins.
//
// # One layer
//
// Every analyzer is one Run over a Program, and Program.Run is the only
// driver; All returns the ordered roster.  The package-local rules visit
// the program's packages through one ProgPass helper.  The
// interprocedural rules use what Program adds: every function indexed
// by a stable cross-package key ("pkgpath.Name" or "pkgpath.Recv.Name" —
// packages type-check in separate export-data universes, so *types.Func
// identity does not survive package boundaries, but string keys do),
// and every direct call of a declared function or method resolved to a
// static edge, flagged when it is the call of a go statement.  Calls
// through an interface or a function value have no edge.  Determinism
// and DetFlow share one finder of wall-clock reads and order-sensitive
// map ranges.
//
// # Loading
//
// Load shells out to `go list -deps -test -export` once and
// type-checks every module package against compiler export data, with
// positions recorded relative to the module root.  The go list run is
// memoized under <module>/.lintcache, keyed by a content hash of the
// toolchain version, go.mod/go.sum and every tracked .go file, and
// validated against the build cache before reuse.  LoadDir loads one
// testdata package (testdata/src) for the golden harness;
// LoadDirProgram loads a multi-package fixture tree (testdata/prog: each
// subdirectory one package, importable by its directory name) sharing
// one fileset and importer.  Both become a Program like the module does.
//
// # Directives
//
// Diagnostics carry a rule ID (the analyzer name).  A finding can be
// suppressed in place with
//
//	//lint:ignore <rule> <reason>
//
// on the same line or the line immediately above; the reason is
// mandatory, and a directive naming a rule that matches no registered
// analyzer is itself a finding under the pseudo-rule "lint-directive",
// so a typo'd suppression can never silently protect nothing.
// Interprocedural analyzers honor suppressions at the source: a
// suppressed nondeterminism site does not taint its callers.  There is
// no baseline: any finding left fails the gate.
package lint
