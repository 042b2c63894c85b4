package main

import (
	"strings"
	"testing"
)

func TestCheckFlags(t *testing.T) {
	for _, tc := range []struct {
		name                                 string
		runs, pop, gens, par, steps, workers int
		wantErrSubstring                     string
	}{
		{"defaults", 5, 100, 6, 8, 200, 6, ""},
		{"smallest campaign", 1, 1, 0, 1, 1, 1, ""},
		{"no runs", 0, 100, 6, 8, 200, 6, "-runs 0: need at least 1"},
		{"no population", 5, 0, 6, 8, 200, 6, "-pop 0: need at least 1"},
		{"negative generations", 5, 100, -1, 8, 200, 6, "-gens -1: need at least 0"},
		{"no parallelism", 5, 100, 6, 0, 200, 6, "-par 0: need at least 1"},
		{"no training steps", 5, 100, 6, 8, 0, 6, "-steps 0: need at least 1"},
		{"no workers", 5, 100, 6, 8, 200, 0, "-workers 0: need at least 1"},
		{"negative workers", 5, 100, 6, 8, 200, -3, "-workers -3"},
	} {
		err := checkFlags(tc.runs, tc.pop, tc.gens, tc.par, tc.steps, tc.workers)
		switch {
		case tc.wantErrSubstring == "" && err != nil:
			t.Errorf("%s: %v", tc.name, err)
		case tc.wantErrSubstring != "" && (err == nil || !strings.Contains(err.Error(), tc.wantErrSubstring)):
			t.Errorf("%s: error %v, want one containing %q", tc.name, err, tc.wantErrSubstring)
		}
	}
}
