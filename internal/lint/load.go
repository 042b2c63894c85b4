package lint

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
)

// Package is one parsed and type-checked package ready for analysis.
type Package struct {
	ImportPath string
	Name       string
	Dir        string
	Fset       *token.FileSet
	Files      []*ast.File
	Types      *types.Package
	Info       *types.Info
	// TypeErrors collects type-checker complaints.  Analysis still runs
	// (the checker fills Info best-effort), but the driver surfaces them
	// so a finding is never silently missed due to missing type info.
	TypeErrors []error
}

// BaseName returns the package name with any _test suffix stripped, so
// external test packages inherit the rules of the package they test.
func (p *Package) BaseName() string { return strings.TrimSuffix(p.Name, "_test") }

// listPkg mirrors the subset of `go list -json` output the loader needs.
type listPkg struct {
	Dir        string
	ImportPath string
	Name       string
	Export     string
	Standard   bool
	DepOnly    bool
	ForTest    string
	GoFiles    []string
	Error      *struct{ Err string }
}

// Load lists, parses and type-checks every module package matching the
// go-list patterns, including in-package and external test variants.
// Type information for imports is read from compiler export data
// produced by `go list -export`, so the loader needs nothing outside
// the standard library and the go tool itself.
//
// File positions are recorded relative to the module root, which keeps
// diagnostics stable regardless of where the driver runs.
func Load(dir string, patterns ...string) ([]*Package, error) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	args := append([]string{
		"list", "-e", "-deps", "-test", "-export",
		"-json=Dir,ImportPath,Name,Export,Standard,DepOnly,ForTest,GoFiles,Error",
	}, patterns...)

	moduleDir, err := ModuleRoot(dir)
	if err != nil {
		return nil, err
	}
	out, err := listOutput(moduleDir, dir, args)
	if err != nil {
		return nil, err
	}

	var pkgs []*listPkg
	exports := map[string]string{}     // plain import path -> export file
	testExports := map[string]string{} // ForTest path -> test-variant export file
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		var p listPkg
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("go list decode: %v", err)
		}
		lp := p
		pkgs = append(pkgs, &lp)
		if lp.Export != "" {
			switch {
			case lp.ForTest == "":
				exports[lp.ImportPath] = lp.Export
			case strings.HasPrefix(lp.ImportPath, lp.ForTest+" ["):
				// Only the in-package variant `P [P.test]` provides P's
				// test-augmented export data.  The external test package
				// `P_test [P.test]` shares the same ForTest but exports
				// package P_test — recording it here would shadow P and
				// break every import of P from its own external tests.
				testExports[lp.ForTest] = lp.Export
			}
		}
	}

	// Pick analysis targets: module packages explicitly matched by the
	// patterns.  When both "P" and its in-package test variant
	// "P [P.test]" are listed, keep only the variant — it carries the
	// same non-test files plus the _test.go files, so analyzing both
	// would duplicate every diagnostic.
	hasTestVariant := map[string]bool{}
	for _, p := range pkgs {
		// The in-package variant is named `P [P.test]`; the external
		// _test package is `P_test [P.test]` and supersedes nothing.
		if p.ForTest != "" && strings.HasPrefix(p.ImportPath, p.ForTest+" [") {
			hasTestVariant[p.ForTest] = true
		}
	}
	var targets []*listPkg
	for _, p := range pkgs {
		switch {
		case p.Standard || p.DepOnly:
			continue
		case strings.HasSuffix(p.ImportPath, ".test"):
			continue // synthetic test main
		case p.Error != nil:
			return nil, fmt.Errorf("go list %s: %s", p.ImportPath, p.Error.Err)
		case len(p.GoFiles) == 0:
			continue
		case p.ForTest == "" && hasTestVariant[p.ImportPath]:
			continue // superseded by the test variant
		}
		targets = append(targets, p)
	}
	sort.Slice(targets, func(i, j int) bool { return targets[i].ImportPath < targets[j].ImportPath })

	var loaded []*Package
	for _, t := range targets {
		lookup := exportLookup(exports, testExports, t.ForTest, moduleDir)
		pkg, err := checkPackage(t, moduleDir, lookup)
		if err != nil {
			return nil, fmt.Errorf("%s: %v", t.ImportPath, err)
		}
		loaded = append(loaded, pkg)
	}
	return loaded, nil
}

// listOutput memoizes the expensive `go list -deps -test -export` run
// behind a content-hash cache under <module>/.lintcache.  The key
// covers the go toolchain version, the list arguments, go.mod/go.sum
// and the content of every tracked .go file, so any edit anywhere in
// the module misses the cache; a hit is additionally validated by
// checking that every referenced export file still exists (the build
// cache may have been pruned since the entry was written).
func listOutput(moduleDir, dir string, args []string) ([]byte, error) {
	key, keyErr := golistCacheKey(moduleDir, args)
	cacheDir := filepath.Join(moduleDir, ".lintcache")
	cachePath := filepath.Join(cacheDir, "golist-"+key+".json")
	if keyErr == nil {
		if out, err := os.ReadFile(cachePath); err == nil && exportsExist(out) {
			return out, nil
		}
	}

	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list: %v\n%s", err, stderr.String())
	}
	if keyErr == nil {
		if err := os.MkdirAll(cacheDir, 0o755); err == nil {
			// One live entry: stale keys are dead weight, drop them.
			if old, err := filepath.Glob(filepath.Join(cacheDir, "golist-*.json")); err == nil {
				for _, f := range old {
					os.Remove(f)
				}
			}
			os.WriteFile(cachePath, out, 0o644)
		}
	}
	return out, nil
}

// golistCacheKey hashes everything that can change go list output.
func golistCacheKey(moduleDir string, args []string) (string, error) {
	h := sha256.New()
	fmt.Fprintln(h, runtime.Version())
	fmt.Fprintln(h, strings.Join(args, "\x00"))
	for _, name := range []string{"go.mod", "go.sum"} {
		b, err := os.ReadFile(filepath.Join(moduleDir, name))
		if err == nil {
			fmt.Fprintf(h, "%s %d\n", name, len(b))
			h.Write(b)
		}
	}
	err := filepath.WalkDir(moduleDir, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if path != moduleDir && (strings.HasPrefix(name, ".") || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(d.Name(), ".go") {
			return nil
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(moduleDir, path)
		fmt.Fprintf(h, "%s %d\n", filepath.ToSlash(rel), len(b))
		h.Write(b)
		return nil
	})
	if err != nil {
		return "", err
	}
	return fmt.Sprintf("%x", h.Sum(nil))[:24], nil
}

// exportsExist validates a cached go list stream: every export file it
// references must still be present in the build cache.
func exportsExist(out []byte) bool {
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		var p listPkg
		if err := dec.Decode(&p); err == io.EOF {
			return true
		} else if err != nil {
			return false
		}
		if p.Export != "" {
			if _, err := os.Stat(p.Export); err != nil {
				return false
			}
		}
	}
}

// LoadDir parses every .go file directly inside dir as a single package
// and type-checks it, resolving imports on demand via `go list -export`.
// This is how the golden-test harness loads testdata packages that are
// invisible to the go tool.
func LoadDir(dir string) (*Package, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []string
	for _, e := range entries {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".go") {
			files = append(files, e.Name())
		}
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("no .go files in %s", dir)
	}
	sort.Strings(files)
	t := &listPkg{Dir: dir, ImportPath: dir, GoFiles: files}
	return checkPackage(t, dir, onDemandLookup(dir))
}

// checkPackage parses t's files and runs the type checker over them.
func checkPackage(t *listPkg, baseDir string, lookup func(path string) (io.ReadCloser, error)) (*Package, error) {
	fset := token.NewFileSet()
	return checkPackageWith(t, baseDir, fset, importer.ForCompiler(fset, "gc", lookup))
}

// checkPackageWith is checkPackage with caller-supplied fileset and
// importer, so multi-package fixture programs can share one type
// universe (stdlib and sibling types must unify across packages).
func checkPackageWith(t *listPkg, baseDir string, fset *token.FileSet, imp types.Importer) (*Package, error) {
	var files []*ast.File
	for _, name := range t.GoFiles {
		abs := filepath.Join(t.Dir, name)
		display := abs
		if rel, err := filepath.Rel(baseDir, abs); err == nil && !strings.HasPrefix(rel, "..") {
			display = filepath.ToSlash(rel)
		}
		src, err := os.ReadFile(abs)
		if err != nil {
			return nil, err
		}
		f, err := parser.ParseFile(fset, display, src, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}

	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Implicits:  map[ast.Node]types.Object{},
		Scopes:     map[ast.Node]*types.Scope{},
	}
	var typeErrs []error
	conf := types.Config{
		Importer: imp,
		Error:    func(err error) { typeErrs = append(typeErrs, err) },
	}
	// "P [P.test]" type-checks under path P so self-references resolve.
	path := t.ImportPath
	if i := strings.Index(path, " ["); i >= 0 {
		path = path[:i]
	}
	tpkg, _ := conf.Check(path, fset, files, info)
	if tpkg == nil {
		tpkg = types.NewPackage(path, files[0].Name.Name)
	}
	return &Package{
		ImportPath: t.ImportPath,
		Name:       files[0].Name.Name,
		Dir:        t.Dir,
		Fset:       fset,
		Files:      files,
		Types:      tpkg,
		Info:       info,
		TypeErrors: typeErrs,
	}, nil
}

// LoadDirProgram loads a multi-package fixture tree: every immediate
// subdirectory of dir containing .go files is one package, addressed by
// its directory name as import path (`import "util"`).  All packages
// share one fileset and one importer, so sibling and stdlib types
// unify across the mini program — the same property the export-data
// loader gives real module packages.  This is how the golden harness
// exercises the interprocedural analyzers, which only produce findings
// across package boundaries.
func LoadDirProgram(dir string) ([]*Package, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		sub, err := os.ReadDir(filepath.Join(dir, e.Name()))
		if err != nil {
			return nil, err
		}
		for _, f := range sub {
			if !f.IsDir() && strings.HasSuffix(f.Name(), ".go") {
				names = append(names, e.Name())
				break
			}
		}
	}
	if len(names) == 0 {
		return nil, fmt.Errorf("no package directories in %s", dir)
	}
	sort.Strings(names)

	fset := token.NewFileSet()
	im := &srcImporter{
		dir:     dir,
		fset:    fset,
		loaded:  map[string]*Package{},
		loading: map[string]bool{},
	}
	im.gc = importer.ForCompiler(fset, "gc", onDemandLookup(dir))
	var pkgs []*Package
	for _, name := range names {
		p, err := im.load(name)
		if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, p)
	}
	return pkgs, nil
}

// srcImporter type-checks fixture packages from source on demand,
// memoized, falling back to compiler export data for everything else.
type srcImporter struct {
	dir     string
	fset    *token.FileSet
	gc      types.Importer
	loaded  map[string]*Package
	loading map[string]bool
}

func (im *srcImporter) Import(path string) (*types.Package, error) {
	if st, err := os.Stat(filepath.Join(im.dir, path)); err == nil && st.IsDir() {
		p, err := im.load(path)
		if err != nil {
			return nil, err
		}
		return p.Types, nil
	}
	return im.gc.Import(path)
}

func (im *srcImporter) load(rel string) (*Package, error) {
	if p, ok := im.loaded[rel]; ok {
		return p, nil
	}
	if im.loading[rel] {
		return nil, fmt.Errorf("import cycle through fixture package %q", rel)
	}
	im.loading[rel] = true
	defer delete(im.loading, rel)

	pkgDir := filepath.Join(im.dir, rel)
	entries, err := os.ReadDir(pkgDir)
	if err != nil {
		return nil, err
	}
	var files []string
	for _, e := range entries {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".go") {
			files = append(files, e.Name())
		}
	}
	sort.Strings(files)
	t := &listPkg{Dir: pkgDir, ImportPath: rel, GoFiles: files}
	p, err := checkPackageWith(t, im.dir, im.fset, im)
	if err != nil {
		return nil, err
	}
	im.loaded[rel] = p
	return p, nil
}

// exportLookup resolves import paths against the export files collected
// from one `go list -deps` run.  A package under test (ForTest) resolves
// to its test variant so external _test packages see test-only symbols.
func exportLookup(exports, testExports map[string]string, forTest, moduleDir string) func(string) (io.ReadCloser, error) {
	return func(path string) (io.ReadCloser, error) {
		file := ""
		if forTest != "" && path == forTest {
			file = testExports[path]
		}
		if file == "" {
			file = exports[path]
		}
		if file == "" {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return openExport(file)
	}
}

var (
	onDemandMu    sync.Mutex
	onDemandCache = map[string]string{}
)

// onDemandLookup resolves imports by shelling out to `go list -export`
// per package, with a process-wide cache.  Used only for testdata
// packages, whose import sets are tiny (stdlib packages).
func onDemandLookup(dir string) func(string) (io.ReadCloser, error) {
	return func(path string) (io.ReadCloser, error) {
		onDemandMu.Lock()
		file, ok := onDemandCache[path]
		onDemandMu.Unlock()
		if !ok {
			cmd := exec.Command("go", "list", "-export", "-f", "{{.Export}}", path)
			cmd.Dir = dir
			out, err := cmd.Output()
			if err != nil {
				return nil, fmt.Errorf("go list -export %s: %v", path, err)
			}
			file = strings.TrimSpace(string(out))
			if file == "" {
				return nil, fmt.Errorf("no export data for %q", path)
			}
			onDemandMu.Lock()
			onDemandCache[path] = file
			onDemandMu.Unlock()
		}
		return openExport(file)
	}
}

func openExport(file string) (io.ReadCloser, error) {
	f, err := os.Open(file)
	if err != nil {
		return nil, err
	}
	return struct {
		io.Reader
		io.Closer
	}{bufio.NewReader(f), f}, nil
}

// ModuleRoot returns the directory containing go.mod for dir.
func ModuleRoot(dir string) (string, error) {
	cmd := exec.Command("go", "env", "GOMOD")
	cmd.Dir = dir
	out, err := cmd.Output()
	if err != nil {
		return "", fmt.Errorf("go env GOMOD: %v", err)
	}
	gomod := strings.TrimSpace(string(out))
	if gomod == "" || gomod == os.DevNull {
		return "", fmt.Errorf("not in a module (go env GOMOD empty)")
	}
	return filepath.Dir(gomod), nil
}
