// Command lint runs the project-native static-analysis suite
// (internal/lint) over the module and gates the result against the
// committed baseline.  All eight analyzers run once each over one
// Program: the five package-local rules (determinism, floateq,
// ctxhygiene, lockdiscipline, errdiscard) and the three built on the
// call-graph engine (goroutineleak, lockorder, detflow).
//
// Usage:
//
//	go run ./cmd/lint ./...                    # enforce (CI and tier-1)
//	go run ./cmd/lint -update-baseline ./...   # shrink the baseline
//	go run ./cmd/lint -list                    # describe the rules
//	go run ./cmd/lint -json ./...              # machine-readable findings
//	go run ./cmd/lint -format=github ./...     # ::error annotations for CI
//	go run ./cmd/lint -v ./...                 # load + per-analyzer timing
//
// Exit status: 0 clean (or fully baselined), 1 new or stale findings,
// 2 load/type-check failure.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/lint"
)

func main() {
	var (
		baselinePath = flag.String("baseline", "scripts/lint_baseline.txt", "baseline file, relative to the module root")
		update       = flag.Bool("update-baseline", false, "rewrite the baseline from this run's findings")
		list         = flag.Bool("list", false, "list rules and exit")
		jsonOut      = flag.Bool("json", false, "emit new findings as a JSON array on stdout")
		format       = flag.String("format", "text", "finding format: text or github (::error workflow annotations)")
		verbose      = flag.Bool("v", false, "report load and per-analyzer wall time on stderr")
	)
	flag.Parse()

	if *list {
		for _, a := range lint.All() {
			fmt.Printf("%-16s %s\n", a.Name, a.Doc)
		}
		return
	}
	if *format != "text" && *format != "github" {
		fatal(2, "lint: unknown -format %q (want text or github)", *format)
	}

	root, err := lint.ModuleRoot(".")
	if err != nil {
		fatal(2, "lint: %v", err)
	}
	bl := *baselinePath
	if !filepath.IsAbs(bl) {
		bl = filepath.Join(root, bl)
	}

	loadStart := time.Now()
	pkgs, err := lint.Load(root, flag.Args()...)
	if err != nil {
		fatal(2, "lint: %v", err)
	}
	loadTime := time.Since(loadStart)

	typeErrs := 0
	for _, pkg := range pkgs {
		for _, e := range pkg.TypeErrors {
			fmt.Fprintf(os.Stderr, "lint: type error in %s: %v\n", pkg.ImportPath, e)
			typeErrs++
		}
	}
	if typeErrs > 0 {
		fatal(2, "lint: %d type error(s); findings would be unreliable", typeErrs)
	}

	prog := lint.NewProgram(pkgs)
	diags := prog.Run(lint.All())

	if *verbose {
		fmt.Fprintf(os.Stderr, "lint: load       %8.0fms  (%d packages)\n", loadTime.Seconds()*1e3, len(pkgs))
		for _, t := range prog.Timings() {
			fmt.Fprintf(os.Stderr, "lint: %-10s %8.0fms\n", t.Name, t.Duration.Seconds()*1e3)
		}
	}

	if *update {
		if err := lint.WriteBaseline(bl, diags); err != nil {
			fatal(2, "lint: %v", err)
		}
		fmt.Printf("lint: baseline updated with %d finding(s): %s\n", len(diags), bl)
		return
	}

	base, err := lint.ReadBaseline(bl)
	if err != nil {
		fatal(2, "lint: %v", err)
	}
	fresh, stale := lint.Gate(diags, base)
	emit(fresh, *jsonOut, *format)
	for _, s := range stale {
		fmt.Fprintf(os.Stderr, "lint: stale baseline entry (finding no longer reproduces): %s\n", s)
	}
	switch {
	case len(fresh) > 0:
		fatal(1, "lint: %d new finding(s); fix them or //lint:ignore with a reason", len(fresh))
	case len(stale) > 0:
		fatal(1, "lint: %d stale baseline entr(ies); run: go run ./cmd/lint -update-baseline ./...", len(stale))
	}
	if !*jsonOut {
		fmt.Printf("lint: clean (%d package(s), %d baselined finding(s))\n", len(pkgs), len(diags))
	}
}

// jsonDiag is the machine-readable finding shape for -json.
type jsonDiag struct {
	File string `json:"file"`
	Line int    `json:"line"`
	Col  int    `json:"col"`
	Rule string `json:"rule"`
	Msg  string `json:"msg"`
}

func emit(fresh []lint.Diagnostic, asJSON bool, format string) {
	if asJSON {
		out := make([]jsonDiag, 0, len(fresh))
		for _, d := range fresh {
			out = append(out, jsonDiag{File: d.Pos.Filename, Line: d.Pos.Line, Col: d.Pos.Column, Rule: d.Rule, Msg: d.Msg})
		}
		data, err := json.MarshalIndent(out, "", "  ")
		if err != nil {
			fatal(2, "lint: encoding findings: %v", err)
		}
		fmt.Printf("%s\n", data)
		return
	}
	for _, d := range fresh {
		if format == "github" {
			fmt.Printf("::error file=%s,line=%d,col=%d,title=lint/%s::%s\n",
				d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Rule, githubEscape(d.Msg))
			continue
		}
		fmt.Println(d.String())
	}
}

// githubEscape encodes the characters the workflow-command parser
// treats specially in the message position.
func githubEscape(s string) string {
	s = strings.ReplaceAll(s, "%", "%25")
	s = strings.ReplaceAll(s, "\r", "%0D")
	s = strings.ReplaceAll(s, "\n", "%0A")
	return s
}

func fatal(code int, format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
	os.Exit(code)
}
