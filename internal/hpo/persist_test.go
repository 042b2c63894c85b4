package hpo

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"math"
	"math/rand"
	"os"
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

func smallCampaign(t testing.TB) *CampaignResult {
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
	path := filepath.Join(t.TempDir(), "campaign.log")
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

// TestLoadCampaignRejectsBadInput: a log is refused by its header — a
// foreign format, any version but 2 (the version-1 document included), a
// run count out of range — and by its first bad record, with the line.
func TestLoadCampaignRejectsBadInput(t *testing.T) {
	for _, tc := range []struct {
		name, in, want string
	}{
		{"garbage", "not json", "not a version-2 campaign log"},
		{"empty", "", "not a version-2 campaign log"},
		{"wrong_format", `{"format":"other","version":2,"runs":1}` + "\n", `format "other"`},
		{"version_1", `{"format":"repro-hpo-campaign","version":1,"runs":[]}`, "version 1"},
		{"version_99", `{"format":"repro-hpo-campaign","version":99,"runs":1}` + "\n", "version 99"},
		{"runs_negative", `{"format":"repro-hpo-campaign","version":2,"runs":-1}` + "\n", "-1 runs"},
		{"runs_huge", `{"format":"repro-hpo-campaign","version":2,"runs":1099511627776}` + "\n", "1099511627776 runs"},
		{"runs_not_int", `{"format":"repro-hpo-campaign","version":2,"runs":"5"}` + "\n", "header"},
		{"header_torn", `{"format":"repro-hpo-campaign","version":2,"runs":1}`, "incomplete"},
		{"header_run_on", `{"format":"repro-hpo-campaign","version":2,"runs":1} {}` + "\n", "incomplete"},
		{"dangling_survivor", `{"format":"repro-hpo-campaign","version":2,"runs":1}` + "\n" +
			`{"run":0,"gen":0,"evaluated":[],"survivor_ids":["00000000-0000-0000-0000-000000000000"],"failures":0}` + "\n",
			"line 2"},
		// The sorts that rank a loaded final population index every
		// fitness by the first one's length.
		{"objectives_differ", `{"format":"repro-hpo-campaign","version":2,"runs":1}` + "\n" +
			`{"run":0,"gen":0,"evaluated":[{"id":"5f0c0a4e-8d3b-4c6a-9a41-0f7d2c9b1e35","genome":[1],"fitness":[1,2],"runtime_ms":0,"birth":0},` +
			`{"id":"0b6e7a51-2c4d-4f8e-8b3a-6d9c1e2f4a70","genome":[2],"fitness":[2],"runtime_ms":0,"birth":0}],` +
			`"survivor_ids":["5f0c0a4e-8d3b-4c6a-9a41-0f7d2c9b1e35","0b6e7a51-2c4d-4f8e-8b3a-6d9c1e2f4a70"],"failures":0}` + "\n",
			"1 objectives, want 2"},
		// A runtime past time.Duration's range would not save back as read.
		{"runtime_overflow", `{"format":"repro-hpo-campaign","version":2,"runs":1}` + "\n" +
			`{"run":0,"gen":0,"evaluated":[{"id":"5f0c0a4e-8d3b-4c6a-9a41-0f7d2c9b1e35","genome":[1],"fitness":[1,2],"runtime_ms":9223372036854775807,"birth":0}],` +
			`"survivor_ids":["5f0c0a4e-8d3b-4c6a-9a41-0f7d2c9b1e35"],"failures":0}` + "\n",
			"out of range"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, err := LoadCampaign(strings.NewReader(tc.in))
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %v, want one saying %q", err, tc.want)
			}
		})
	}

	// A version-1 document written by the previous SaveCampaign is
	// refused by name, not mistaken for a log with a damaged header.
	path := filepath.Join("testdata", "campaign_v1.json")
	_, err := LoadCampaignFile(path)
	if err == nil {
		t.Fatal("version-1 campaign document accepted")
	}
	for _, want := range []string{path, "version 1"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not say %q", err, want)
		}
	}
}

// saveBytes is the campaign log of c.
func saveBytes(t testing.TB, c *CampaignResult) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := SaveCampaign(&buf, c); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// logLines splits a campaign log into its header and record lines.
func logLines(t *testing.T, log []byte) (header []byte, recs [][]byte) {
	t.Helper()
	if len(log) == 0 || log[len(log)-1] != '\n' {
		t.Fatalf("log does not end in a newline:\n%s", log)
	}
	lines := bytes.Split(log[:len(log)-1], []byte{'\n'})
	return lines[0], lines[1:]
}

// joinLog is the log of header and lines, every line newline-terminated.
func joinLog(header []byte, lines ...[]byte) []byte {
	return append(bytes.Join(append([][]byte{header}, lines...), []byte{'\n'}), '\n')
}

// TestGenerationRecordRoundTrip: one generation survives the record
// encoding — one line, non-finite fitness sentinels and the evaluation
// error included — and survivors of a later record resolve to
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

	var lines [][]byte
	for _, gen := range orig {
		line := AppendGeneration(nil, 3, gen)
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
		lines = append(lines, line)
	}
	header := []byte(`{"format":"repro-hpo-campaign","version":2,"runs":4}`)
	got, err := LoadCampaign(bytes.NewReader(joinLog(header, lines...)))
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

	for name, bad := range map[string][][]byte{
		"run out of range":   {bytes.Replace(lines[0], []byte(`{"run":3,`), []byte(`{"run":4,`), 1)},
		"generation skipped": {lines[1]},
		"generation twice":   {lines[0], lines[0]},
	} {
		if _, err := LoadCampaign(bytes.NewReader(joinLog(header, bad...))); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// TestLoadCampaignRefusesRepeatedID: an ID is evaluated once per run.  A
// record that evaluates an ID again — in its own generation or after an
// earlier one — would leave its survivors resolving to whichever
// individual came last, so it is refused with its line.
func TestLoadCampaignRefusesRepeatedID(t *testing.T) {
	a, b := ea.NewIndividual(ea.Genome{1}), ea.NewIndividual(ea.Genome{2})
	a.Fitness, b.Fitness = ea.Fitness{1, 2}, ea.Fitness{2, 1}
	header := []byte(`{"format":"repro-hpo-campaign","version":2,"runs":1}`)
	line := func(gen int, evaluated, survivors ea.Population) []byte {
		return AppendGeneration(nil, 0, nsga2.GenerationRecord{Gen: gen, Evaluated: evaluated, Survivors: survivors})
	}
	for name, tc := range map[string]struct {
		lines [][]byte
		want  string
	}{
		"same_generation": {[][]byte{line(0, ea.Population{a, b, a}, ea.Population{a})}, "line 2"},
		"later_generation": {[][]byte{
			line(0, ea.Population{a, b}, ea.Population{a, b}),
			line(1, ea.Population{b}, ea.Population{b}),
		}, "line 3"},
	} {
		t.Run(name, func(t *testing.T) {
			_, err := LoadCampaign(bytes.NewReader(joinLog(header, tc.lines...)))
			if err == nil || !strings.Contains(err.Error(), tc.want) || !strings.Contains(err.Error(), "evaluated twice") {
				t.Fatalf("error %v, want the repeated ID refused at %s", err, tc.want)
			}
		})
	}
}

// TestLoadCampaignRefusesRepeatedSurvivor: a generation names each
// survivor once.  Naming one twice would put the same individual in the
// final population twice, so it is refused with its line.
func TestLoadCampaignRefusesRepeatedSurvivor(t *testing.T) {
	a, b := ea.NewIndividual(ea.Genome{1}), ea.NewIndividual(ea.Genome{2})
	a.Fitness, b.Fitness = ea.Fitness{1, 2}, ea.Fitness{2, 1}
	line := AppendGeneration(nil, 0, nsga2.GenerationRecord{Evaluated: ea.Population{a, b}, Survivors: ea.Population{a, a}})
	header := []byte(`{"format":"repro-hpo-campaign","version":2,"runs":1}`)
	_, err := LoadCampaign(bytes.NewReader(joinLog(header, line)))
	if err == nil || !strings.Contains(err.Error(), "line 2") || !strings.Contains(err.Error(), "named twice") {
		t.Fatalf("error %v, want the repeated survivor refused at line 2", err)
	}
}

// TestLoadCampaignTornTailAndCorruptLine: only a torn *tail* is a crash.
// A final line without its newline is dropped, and what is left loads as
// the campaign without that generation; a complete line that does not
// parse is an error naming the input and the line.
func TestLoadCampaignTornTailAndCorruptLine(t *testing.T) {
	orig := smallCampaign(t)
	log := saveBytes(t, orig)
	header, lines := logLines(t, log)
	last := len(lines) - 1 // run 1's last generation

	for _, keep := range []int{1, len(lines[last]) / 2, len(lines[last])} {
		torn := append(joinLog(header, lines[:last]...), lines[last][:keep]...)
		got, err := LoadCampaign(bytes.NewReader(torn))
		if err != nil {
			t.Fatalf("torn tail keeping %d bytes: %v", keep, err)
		}
		if !bytes.Equal(saveBytes(t, got), joinLog(header, lines[:last]...)) {
			t.Errorf("torn tail keeping %d bytes: the lines before it did not load as they were", keep)
		}
	}

	path := filepath.Join(t.TempDir(), "damaged.log")
	damaged := append([][]byte(nil), lines...)
	damaged[2] = damaged[2][:len(damaged[2])/2]
	if err := os.WriteFile(path, joinLog(header, damaged...), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := LoadCampaignFile(path)
	if err == nil {
		t.Fatal("corrupt middle line accepted")
	}
	for _, want := range []string{path, "line 4"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not say %q", err, want)
		}
	}
}

// TestCampaignFromRecordsEqualsLoadCampaign: a log is its records in any
// interleaving of the runs.  The record lines of a SaveCampaign log,
// shuffled across runs with each run's order kept, load into the same
// campaign and save to the same bytes — on a campaign whose runs stand
// at different generations.
func TestCampaignFromRecordsEqualsLoadCampaign(t *testing.T) {
	orig := smallCampaign(t)
	ahead, err := ContinueRun(context.Background(), CampaignConfig{
		PopSize: 15, Generations: 5, Evaluator: persistEval, Parallelism: 4, AnnealFactor: 0.85, BaseSeed: 5,
	}, 1, orig.Runs[1])
	if err != nil {
		t.Fatal(err)
	}
	orig.Runs[1] = ahead
	if a, b := len(orig.Runs[0].Generations), len(orig.Runs[1].Generations); a == b {
		t.Fatalf("both runs have %d generations; the test wants them apart", a)
	}
	log := saveBytes(t, orig)
	loaded, err := LoadCampaign(bytes.NewReader(log))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(saveBytes(t, loaded), log) {
		t.Fatal("SaveCampaign → LoadCampaign → SaveCampaign changed the log")
	}

	header, lines := logLines(t, log)
	byRun := make([][][]byte, len(orig.Runs))
	for _, line := range lines {
		var rec GenerationRecord
		if err := json.Unmarshal(line, &rec); err != nil {
			t.Fatal(err)
		}
		byRun[rec.Run] = append(byRun[rec.Run], line)
	}
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 20; trial++ {
		var shuffled [][]byte
		next := make([]int, len(byRun))
		for len(shuffled) < len(lines) {
			r := rng.Intn(len(byRun))
			if next[r] < len(byRun[r]) {
				shuffled = append(shuffled, byRun[r][next[r]])
				next[r]++
			}
		}
		built, err := LoadCampaign(bytes.NewReader(joinLog(header, shuffled...)))
		if err != nil {
			t.Fatalf("interleaving %d: %v", trial, err)
		}
		if !bytes.Equal(saveBytes(t, built), log) {
			t.Fatalf("interleaving %d saved different bytes", trial)
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
	}
}

// FuzzLoadCampaign: the reader never panics, refuses a header's run
// count before allocating for it, and whatever it accepts is a fixed
// point after one SaveCampaign → LoadCampaign round, with every record
// re-encoded by AppendGeneration to the reflection oracle's bytes.
func FuzzLoadCampaign(f *testing.F) {
	two := smallCampaign(f)
	log := saveBytes(f, two)
	f.Add(log)
	f.Add(log[:len(log)-7]) // torn tail
	nl := bytes.IndexByte(log, '\n') + 1
	mid := nl + bytes.IndexByte(log[nl:], '\n') + 1
	f.Add(append(append(append([]byte(nil), log[:mid]...), "{\"run\":0,\"gen\"\n"...), log[mid:]...)) // corrupt middle line
	v1, err := os.ReadFile(filepath.Join("testdata", "campaign_v1.json"))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(v1)
	f.Add([]byte(`{"format":"repro-hpo-campaign","version":2,"runs":-1}` + "\n"))
	f.Add([]byte(`{"format":"repro-hpo-campaign","version":2,"runs":1099511627776}` + "\n"))
	f.Add([]byte(`{"format":"repro-hpo-campaign","version":2,"runs":1}` + "\n" +
		`{"run":0,"gen":0,"evaluated":[{"id":"5f0c0a4e-8d3b-4c6a-9a41-0f7d2c9b1e35","genome":[1],"fitness":["NaN","+Inf"],"runtime_ms":3,"birth":0},` +
		`{"id":"0b6e7a51-2c4d-4f8e-8b3a-6d9c1e2f4a70","genome":[2],"fitness":["-Inf",0.5],"err":"diverged","runtime_ms":4,"birth":0}],` +
		`"survivor_ids":["5f0c0a4e-8d3b-4c6a-9a41-0f7d2c9b1e35"],"failures":1}` + "\n"))

	f.Fuzz(func(t *testing.T, in []byte) {
		c, err := LoadCampaign(bytes.NewReader(in))
		if err != nil {
			return
		}
		for r, run := range c.Runs {
			for _, gen := range run.Generations {
				checkAppendGeneration(t, r, gen)
			}
		}
		once := saveBytes(t, c)
		again, err := LoadCampaign(bytes.NewReader(once))
		if err != nil {
			t.Fatalf("the log of an accepted input does not load: %v\n%s", err, once)
		}
		if twice := saveBytes(t, again); !bytes.Equal(twice, once) {
			t.Fatalf("not a fixed point:\n%s\n%s", once, twice)
		}
	})
}
