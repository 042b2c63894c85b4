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
