package main

import (
	"strings"
	"testing"
)

func TestCheckFlags(t *testing.T) {
	for _, tc := range []struct {
		name             string
		workers, steps   int
		wantErrSubstring string
	}{
		{"defaults", 6, 0, ""},
		{"one worker, truncated", 1, 5, ""},
		{"no workers", 0, 0, "-workers 0: need at least 1"},
		{"negative workers", -1, 5, "-workers -1"},
		{"negative steps", 6, -1, "-steps -1: need at least 0"},
	} {
		err := checkFlags(tc.workers, tc.steps)
		switch {
		case tc.wantErrSubstring == "" && err != nil:
			t.Errorf("%s: %v", tc.name, err)
		case tc.wantErrSubstring != "" && (err == nil || !strings.Contains(err.Error(), tc.wantErrSubstring)):
			t.Errorf("%s: error %v, want one containing %q", tc.name, err, tc.wantErrSubstring)
		}
	}
}
