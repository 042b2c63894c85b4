package hpo

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"math"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/ea"
	"repro/internal/nsga2"
)

// persistEval is a cheap stand-in evaluator with occasional failures
// (internal/surrogate cannot be imported here: it imports hpo).
var persistEval = ea.EvaluatorFunc(func(_ context.Context, g ea.Genome) (ea.Fitness, error) {
	h, err := Decode(g)
	if err != nil {
		return nil, err
	}
	if math.Mod(h.RCut*1e6, 17) < 1 {
		return nil, errors.New("sporadic crash")
	}
	return ea.Fitness{h.StartLR, 12 - h.RCut}, nil
})

func smallCampaign(t *testing.T) *CampaignResult {
	t.Helper()
	res, err := RunCampaign(context.Background(), CampaignConfig{
		Runs: 2, PopSize: 15, Generations: 3,
		Evaluator:   persistEval,
		Parallelism: 4, AnnealFactor: 0.85, BaseSeed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestCampaignSaveLoadRoundTrip(t *testing.T) {
	orig := smallCampaign(t)
	var buf bytes.Buffer
	if err := SaveCampaign(&buf, orig); err != nil {
		t.Fatalf("SaveCampaign: %v", err)
	}
	got, err := LoadCampaign(&buf)
	if err != nil {
		t.Fatalf("LoadCampaign: %v", err)
	}
	if len(got.Runs) != len(orig.Runs) {
		t.Fatalf("runs %d != %d", len(got.Runs), len(orig.Runs))
	}
	if got.TotalEvaluations() != orig.TotalEvaluations() {
		t.Errorf("evaluations %d != %d", got.TotalEvaluations(), orig.TotalEvaluations())
	}
	if got.TotalFailures() != orig.TotalFailures() {
		t.Errorf("failures %d != %d", got.TotalFailures(), orig.TotalFailures())
	}
	// Spot-check an individual's full state.
	oi := orig.Runs[0].Generations[1].Evaluated[3]
	gi := got.Runs[0].Generations[1].Evaluated[3]
	if oi.ID != gi.ID || oi.Birth != gi.Birth {
		t.Error("identity fields lost")
	}
	for k := range oi.Genome {
		if oi.Genome[k] != gi.Genome[k] {
			t.Fatal("genome lost precision")
		}
	}
	for k := range oi.Fitness {
		if oi.Fitness[k] != gi.Fitness[k] {
			t.Fatal("fitness lost precision (including MAXINT failures)")
		}
	}
	// Frontier computed from the loaded campaign matches the original.
	of := orig.ParetoFront()
	gf := got.ParetoFront()
	if len(of) != len(gf) {
		t.Errorf("frontier size %d != %d after reload", len(gf), len(of))
	}
	// Survivors alias evaluated individuals (same object identity).
	lastGen := got.Runs[0].Generations[len(got.Runs[0].Generations)-1]
	found := false
	for _, s := range lastGen.Survivors {
		for _, e := range lastGen.Evaluated {
			if s == e {
				found = true
			}
		}
	}
	if !found {
		t.Error("no survivor aliases a last-generation evaluation")
	}
}

func TestCampaignSaveLoadFile(t *testing.T) {
	orig := smallCampaign(t)
	path := filepath.Join(t.TempDir(), "campaign.json")
	if err := SaveCampaignFile(path, orig); err != nil {
		t.Fatalf("SaveCampaignFile: %v", err)
	}
	got, err := LoadCampaignFile(path)
	if err != nil {
		t.Fatalf("LoadCampaignFile: %v", err)
	}
	if got.TotalEvaluations() != orig.TotalEvaluations() {
		t.Error("file round trip lost evaluations")
	}
}

func TestCampaignErrorsPreserved(t *testing.T) {
	failing := ea.EvaluatorFunc(func(_ context.Context, g ea.Genome) (ea.Fitness, error) {
		return nil, errors.New("simulated node failure")
	})
	res, err := RunCampaign(context.Background(), CampaignConfig{
		Runs: 1, PopSize: 4, Generations: 1,
		Evaluator: failing, Parallelism: 2, BaseSeed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := SaveCampaign(&buf, res); err != nil {
		t.Fatal(err)
	}
	got, err := LoadCampaign(&buf)
	if err != nil {
		t.Fatal(err)
	}
	ind := got.Runs[0].Generations[0].Evaluated[0]
	if ind.Err == nil || !strings.Contains(ind.Err.Error(), "node failure") {
		t.Errorf("evaluation error not preserved: %v", ind.Err)
	}
	if !ind.Fitness.IsFailure() {
		t.Error("failure fitness not preserved")
	}
}

// TestNonFiniteFitnessRoundTrip is the regression test for the
// persistence bug: json.Marshal rejects ±Inf/NaN outright, so a campaign
// holding even one individual with a non-finite fitness — exactly what a
// diverged or cancelled evaluation leaves behind — could not be saved or
// resumed at all.  Non-finite values must round-trip bit-faithfully
// through the string sentinels.
func TestNonFiniteFitnessRoundTrip(t *testing.T) {
	mk := func(fit ea.Fitness) *ea.Individual {
		ind := ea.NewIndividual(ea.Genome{1.5, -2.25, 0.875})
		ind.Fitness = fit
		ind.Evaluated = true
		return ind
	}
	inds := []*ea.Individual{
		mk(ea.Fitness{math.Inf(1), math.NaN()}),
		mk(ea.Fitness{math.Inf(-1), 3.0625}),
		mk(ea.Fitness{0.1, 0.2}), // finite control
		mk(ea.FailureFitness(2)), // MAXINT sentinel (finite, must stay exact)
	}
	orig := &CampaignResult{Runs: []*nsga2.Result{{
		Generations: []nsga2.GenerationRecord{{
			Gen:       0,
			Evaluated: inds,
			Survivors: ea.Population{inds[2]},
		}},
		Final: ea.Population{inds[2]},
	}}}

	var buf bytes.Buffer
	if err := SaveCampaign(&buf, orig); err != nil {
		t.Fatalf("SaveCampaign with non-finite fitness: %v", err)
	}
	got, err := LoadCampaign(&buf)
	if err != nil {
		t.Fatalf("LoadCampaign: %v", err)
	}
	loaded := got.Runs[0].Generations[0].Evaluated
	if len(loaded) != len(inds) {
		t.Fatalf("loaded %d individuals, want %d", len(loaded), len(inds))
	}
	for i, want := range inds {
		for k := range want.Fitness {
			w, g := want.Fitness[k], loaded[i].Fitness[k]
			if math.IsNaN(w) != math.IsNaN(g) || (!math.IsNaN(w) && w != g) {
				t.Errorf("individual %d objective %d: %v -> %v", i, k, w, g)
			}
		}
		for k := range want.Genome {
			if want.Genome[k] != loaded[i].Genome[k] {
				t.Errorf("individual %d gene %d: %v -> %v", i, k, want.Genome[k], loaded[i].Genome[k])
			}
		}
	}
}

func TestLoadCampaignRejectsBadInput(t *testing.T) {
	if _, err := LoadCampaign(strings.NewReader("not json")); err == nil {
		t.Error("garbage accepted")
	}
	if _, err := LoadCampaign(strings.NewReader(`{"format":"other","version":1}`)); err == nil {
		t.Error("wrong format accepted")
	}
	if _, err := LoadCampaign(strings.NewReader(`{"format":"repro-hpo-campaign","version":99}`)); err == nil {
		t.Error("future version accepted")
	}
	bad := `{"format":"repro-hpo-campaign","version":1,"runs":[{"generations":[
	  {"gen":0,"evaluated":[],"survivor_ids":["00000000-0000-0000-0000-000000000000"],"failures":0}]}]}`
	if _, err := LoadCampaign(strings.NewReader(bad)); err == nil {
		t.Error("dangling survivor reference accepted")
	}
}

// saveBytes is the campaign document of c.
func saveBytes(t *testing.T, c *CampaignResult) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := SaveCampaign(&buf, c); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestGenerationRecordRoundTrip: one generation survives the standalone
// record encoding — one line, non-finite fitness sentinels and the
// evaluation error included — and survivors of a later record resolve to
// individuals of an earlier one.
func TestGenerationRecordRoundTrip(t *testing.T) {
	mk := func(fit ea.Fitness, err error) *ea.Individual {
		ind := ea.NewIndividual(ea.Genome{1.5, -2.25, 1e-7})
		ind.Fitness, ind.Evaluated, ind.Err = fit, true, err
		ind.Runtime, ind.Birth = 1500*time.Millisecond, 2
		return ind
	}
	gen0 := ea.Population{
		mk(ea.Fitness{math.Inf(1), math.NaN()}, nil),
		mk(ea.Fitness{math.Inf(-1), 3.0625}, nil),
		mk(ea.FailureFitness(2), errors.New(`node "c12" lost: exit 137`)),
		mk(ea.Fitness{0.1, 0.2}, nil),
	}
	gen1 := ea.Population{mk(ea.Fitness{0.05, 0.3}, nil)}
	orig := []nsga2.GenerationRecord{
		{Gen: 0, Evaluated: gen0, Survivors: ea.Population{gen0[3], gen0[1]}, Failures: 1},
		{Gen: 1, Evaluated: gen1, Survivors: ea.Population{gen1[0], gen0[3]}},
	}

	var recs []GenerationRecord
	for _, gen := range orig {
		line, err := MarshalGeneration(3, gen)
		if err != nil {
			t.Fatalf("MarshalGeneration: %v", err)
		}
		if bytes.ContainsAny(line, "\n") {
			t.Fatalf("record is not one line:\n%s", line)
		}
		var rec GenerationRecord
		if err := json.Unmarshal(line, &rec); err != nil {
			t.Fatalf("decoding record: %v\n%s", err, line)
		}
		if rec.Run != 3 || rec.Gen != gen.Gen {
			t.Fatalf("record is run %d gen %d, want run 3 gen %d", rec.Run, rec.Gen, gen.Gen)
		}
		recs = append(recs, rec)
	}
	got, err := CampaignFromRecords(4, recs)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Runs) != 4 || len(got.Runs[0].Generations) != 0 || len(got.Runs[3].Generations) != 2 {
		t.Fatalf("runs assembled wrong: %d runs, run 3 has %d generations", len(got.Runs), len(got.Runs[3].Generations))
	}
	for g, want := range orig {
		have := got.Runs[3].Generations[g]
		if have.Gen != want.Gen || have.Failures != want.Failures || len(have.Evaluated) != len(want.Evaluated) {
			t.Fatalf("generation %d: %+v", g, have)
		}
		for i, w := range want.Evaluated {
			h := have.Evaluated[i]
			if h.ID != w.ID || h.Birth != w.Birth || h.Runtime != w.Runtime || !h.Evaluated {
				t.Errorf("generation %d individual %d: identity fields lost", g, i)
			}
			if (w.Err == nil) != (h.Err == nil) || (w.Err != nil && h.Err.Error() != w.Err.Error()) {
				t.Errorf("generation %d individual %d: err %v -> %v", g, i, w.Err, h.Err)
			}
			for k := range w.Genome {
				if h.Genome[k] != w.Genome[k] {
					t.Errorf("generation %d individual %d gene %d: %v -> %v", g, i, k, w.Genome[k], h.Genome[k])
				}
			}
			for k := range w.Fitness {
				if math.IsNaN(w.Fitness[k]) != math.IsNaN(h.Fitness[k]) || (!math.IsNaN(w.Fitness[k]) && w.Fitness[k] != h.Fitness[k]) {
					t.Errorf("generation %d individual %d objective %d: %v -> %v", g, i, k, w.Fitness[k], h.Fitness[k])
				}
			}
		}
	}
	// The carried-over survivor is the generation-0 object, not a copy.
	if got.Runs[3].Generations[1].Survivors[1] != got.Runs[3].Generations[0].Evaluated[3] {
		t.Error("a survivor carried over from generation 0 does not alias its evaluated individual")
	}
	if len(got.Runs[3].Final) != 2 {
		t.Errorf("final population %d, want the last generation's 2 survivors", len(got.Runs[3].Final))
	}

	for name, bad := range map[string][]GenerationRecord{
		"run out of range":   {{Run: 4}},
		"generation skipped": {recs[1]},
		"generation twice":   {recs[0], recs[0]},
	} {
		if _, err := CampaignFromRecords(4, bad); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// TestCampaignFromRecordsEqualsLoadCampaign: the campaign document and a
// record stream are the same encoding.  The generation objects inside a
// SaveCampaign document, fed as records with their runs interleaved,
// assemble into what LoadCampaign makes of the document — on a campaign
// whose runs stand at different generations.
func TestCampaignFromRecordsEqualsLoadCampaign(t *testing.T) {
	orig := smallCampaign(t)
	ahead, err := ResumeRun(context.Background(), orig.Runs[1], CampaignConfig{
		PopSize: 15, Evaluator: persistEval, Parallelism: 4, AnnealFactor: 0.85, BaseSeed: 5,
	}, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	orig.Runs[1] = ahead
	if a, b := len(orig.Runs[0].Generations), len(orig.Runs[1].Generations); a == b {
		t.Fatalf("both runs have %d generations; the test wants them apart", a)
	}
	doc := saveBytes(t, orig)
	loaded, err := LoadCampaign(bytes.NewReader(doc))
	if err != nil {
		t.Fatal(err)
	}

	var parsed struct {
		Runs []struct {
			Generations []json.RawMessage `json:"generations"`
		} `json:"runs"`
	}
	if err := json.Unmarshal(doc, &parsed); err != nil {
		t.Fatal(err)
	}
	var recs []GenerationRecord
	for g := 0; g < len(parsed.Runs[1].Generations); g++ {
		for r := len(parsed.Runs) - 1; r >= 0; r-- { // run 1 before run 0, generation by generation
			if g >= len(parsed.Runs[r].Generations) {
				continue
			}
			var rec GenerationRecord
			if err := json.Unmarshal(parsed.Runs[r].Generations[g], &rec); err != nil {
				t.Fatal(err)
			}
			rec.Run = r
			recs = append(recs, rec)
		}
	}
	built, err := CampaignFromRecords(len(parsed.Runs), recs)
	if err != nil {
		t.Fatal(err)
	}

	if !bytes.Equal(saveBytes(t, built), doc) || !bytes.Equal(saveBytes(t, loaded), doc) {
		t.Fatal("the campaign document changed on the way through records or LoadCampaign")
	}
	for r := range loaded.Runs {
		lf, bf := loaded.Runs[r].Final, built.Runs[r].Final
		if len(lf) != len(bf) || len(lf) != 15 {
			t.Fatalf("run %d final populations: %d loaded, %d built", r, len(lf), len(bf))
		}
		for i := range lf {
			if lf[i].ID != bf[i].ID || lf[i].Rank != bf[i].Rank || lf[i].Distance != bf[i].Distance {
				t.Errorf("run %d final individual %d differs: %+v vs %+v", r, i, lf[i], bf[i])
			}
		}
		last := built.Runs[r].Generations[len(built.Runs[r].Generations)-1]
		if built.Runs[r].Final[0] != last.Survivors[0] {
			t.Errorf("run %d: final population is not the last generation's survivors", r)
		}
	}
	if lf, bf := loaded.ParetoFront(), built.ParetoFront(); len(lf) != len(bf) {
		t.Errorf("frontier size %d loaded, %d built", len(lf), len(bf))
	}
}
