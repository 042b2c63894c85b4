package main

import (
	"context"
	"strings"
	"testing"

	"repro/internal/experiments"
)

// TestExpListsMatchRender holds the -exp lists to experiments.Render: the
// campaign names after "all", rendered one by one, print exactly what
// "all" prints, and Render draws nothing for a standalone name.
func TestExpListsMatchRender(t *testing.T) {
	c, err := experiments.RunPaperCampaign(context.Background(),
		experiments.Options{Runs: 1, PopSize: 20, Generations: 2, Seed: 2023, Parallelism: 2})
	if err != nil {
		t.Fatal(err)
	}
	if campaignExps[0] != "all" {
		t.Fatalf("campaignExps starts with %q, want all", campaignExps[0])
	}
	var got strings.Builder
	for _, exp := range campaignExps[1:] {
		text, err := experiments.Render(c, exp)
		if err != nil {
			t.Fatalf("-exp %s: %v", exp, err)
		}
		if text == "" {
			t.Errorf("-exp %s renders nothing", exp)
		}
		got.WriteString(text)
	}
	want, err := experiments.Render(c, "all")
	if err != nil {
		t.Fatal(err)
	}
	if got.String() != want {
		t.Errorf("campaignExps rendered one by one differ from -exp all:\n%s\nwant:\n%s", got.String(), want)
	}
	for _, exp := range standaloneExps {
		if text, _ := experiments.Render(c, exp); text != "" {
			t.Errorf("standalone -exp %s renders from the campaign:\n%s", exp, text)
		}
	}
}

// TestRenderKeepsArtifactsPastAFailure runs the campaign of CI's
// "Experiments smoke" step (-exp all -runs 1 -pop 8 -gens 1), too small
// for Table 3 to find a chemically accurate solution.  Table 3's error is
// printed in its place, every other artifact still prints, and Render
// reports the failure so the command exits non-zero.
func TestRenderKeepsArtifactsPastAFailure(t *testing.T) {
	c, err := experiments.RunPaperCampaign(context.Background(),
		experiments.Options{Runs: 1, PopSize: 8, Generations: 1, Seed: 2023, Parallelism: 8})
	if err != nil {
		t.Fatal(err)
	}
	text, err := experiments.Render(c, "all")
	if err == nil || !strings.Contains(err.Error(), "table3") {
		t.Fatalf("Render error = %v, want Table 3's failure", err)
	}
	for _, heading := range []string{"Table 1", "Fig. 1", "Fig. 2", "Table 2", "Fig. 3", "Table 3", "Failures", "Convergence", "Correlations"} {
		if !strings.Contains(text, "==== "+heading) {
			t.Errorf("no %q section in:\n%s", heading, text)
		}
	}
	if !strings.Contains(text, "no chemically accurate solutions") {
		t.Errorf("Table 3's error is not printed in its place:\n%s", text)
	}
}

// TestCheckFlags holds the values main exits 2 on, before any campaign.
func TestCheckFlags(t *testing.T) {
	for _, tc := range []struct {
		name             string
		exp              string
		runs, pop, gens  int
		wantErrSubstring string
	}{
		{"paper defaults", "all", 5, 100, 6, ""},
		{"no offspring generations", "fig2", 1, 8, 0, ""},
		{"unknown -exp", "bogus", 5, 100, 6, `unknown -exp "bogus"; valid: all, table1,`},
		{"retired -exp", "sensitivity", 5, 100, 6, `unknown -exp "sensitivity"`},
		{"no runs", "all", 0, 100, 6, "-runs 0"},
		{"no population", "ablation", 5, 0, 6, "-pop 0"},
		{"negative generations", "baselines", 5, 100, -1, "-gens -1"},
	} {
		err := checkFlags(tc.exp, tc.runs, tc.pop, tc.gens)
		switch {
		case tc.wantErrSubstring == "" && err != nil:
			t.Errorf("%s: %v", tc.name, err)
		case tc.wantErrSubstring != "" && (err == nil || !strings.Contains(err.Error(), tc.wantErrSubstring)):
			t.Errorf("%s: error %v, want one containing %q", tc.name, err, tc.wantErrSubstring)
		}
	}
}
