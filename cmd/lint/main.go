// Command lint runs the project-native static-analysis suite
// (internal/lint) over the module and fails on any finding.  All eight
// analyzers run once each over one Program: the five package-local
// rules (determinism, floateq, ctxhygiene, lockdiscipline, errdiscard)
// and the three built on the static call graph (goroutineleak,
// lockorder, detflow).  A finding is fixed, or kept in place with
// `//lint:ignore <rule> <reason>`; there is no baseline.
//
// Usage:
//
//	go run ./cmd/lint ./...                    # enforce (CI and tier-1)
//	go run ./cmd/lint -list                    # describe the rules
//	go run ./cmd/lint -format=github ./...     # ::error annotations for CI
//	go run ./cmd/lint -v ./...                 # load + per-analyzer timing
//
// Exit status: 0 clean, 1 one or more findings, 2 load/type-check
// failure.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"repro/internal/lint"
)

func main() {
	var (
		list    = flag.Bool("list", false, "list rules and exit")
		format  = flag.String("format", "text", "finding format: text or github (::error workflow annotations)")
		verbose = flag.Bool("v", false, "report load and per-analyzer wall time on stderr")
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

	for _, d := range diags {
		if *format == "github" {
			fmt.Printf("::error file=%s,line=%d,col=%d,title=lint/%s::%s\n",
				d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Rule, githubEscape(d.Msg))
			continue
		}
		fmt.Println(d.String())
	}
	if len(diags) > 0 {
		fatal(1, "lint: %d finding(s); fix them or //lint:ignore with a reason", len(diags))
	}
	fmt.Printf("lint: clean (%d package(s))\n", len(pkgs))
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
