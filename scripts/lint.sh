#!/usr/bin/env bash
# Project-native static analysis gate.
#
# Runs the internal/lint suite over the whole module and fails on any
# finding.  Eight analyzers, each run once over the whole program: five
# package-local (determinism, floateq, ctxhygiene, lockdiscipline,
# errdiscard) and three over the cross-package static call graph
# (goroutineleak, lockorder, detflow).  A finding is fixed or kept in
# place with `//lint:ignore <rule> <reason>`; there is no baseline.
#
# The expensive `go list -export` load is memoized in .lintcache/
# (content-hashed over the toolchain, go.mod/go.sum and every tracked
# .go file), so repeat runs on an unchanged tree skip straight to
# analysis.
#
# Usage:
#   scripts/lint.sh                   # gate (CI entry point)
#   scripts/lint.sh -format=github    # gate with GitHub annotations
set -euo pipefail
cd "$(dirname "$0")/.."
exec go run ./cmd/lint "$@" ./...
