package hpo

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"testing"
	"time"

	"repro/internal/ea"
	"repro/internal/nsga2"
)

// marshalGenerationOracle is the reflection-based record writer
// AppendGeneration replaced, kept as the oracle it is held to: a
// GenerationRecord built from the generation and put through
// json.Marshal.
func marshalGenerationOracle(run int, gen nsga2.GenerationRecord) ([]byte, error) {
	rec := GenerationRecord{Run: run, Gen: gen.Gen, Failures: gen.Failures}
	for _, ind := range gen.Evaluated {
		si := savedIndividual{
			ID:        ind.ID.String(),
			Genome:    JSONFloats(ind.Genome),
			Fitness:   JSONFloats(ind.Fitness),
			RuntimeMS: ind.Runtime.Milliseconds(),
			Birth:     ind.Birth,
		}
		if ind.Err != nil {
			si.Err = ind.Err.Error()
		}
		rec.Evaluated = append(rec.Evaluated, si)
	}
	for _, ind := range gen.Survivors {
		rec.SurvivorIDs = append(rec.SurvivorIDs, ind.ID.String())
	}
	return json.Marshal(rec)
}

// checkAppendGeneration holds AppendGeneration to the oracle for one
// record, appended after a prefix that must survive.
func checkAppendGeneration(t testing.TB, run int, gen nsga2.GenerationRecord) {
	t.Helper()
	want, err := marshalGenerationOracle(run, gen)
	if err != nil {
		t.Fatalf("oracle: %v", err)
	}
	prefix := []byte("prefix\n")
	got := AppendGeneration(prefix[:len(prefix):len(prefix)], run, gen)
	if !bytes.HasPrefix(got, prefix) || !bytes.Equal(got[len(prefix):], want) {
		t.Fatalf("run %d gen %d:\n got  %q\n json %q", run, gen.Gen, got, "prefix\n"+string(want))
	}
}

type emptyError struct{}

func (emptyError) Error() string { return "" }

func TestAppendGenerationMatchesEncodingJSON(t *testing.T) {
	c := smallCampaign(t)
	for r, run := range c.Runs {
		for _, gen := range run.Generations {
			checkAppendGeneration(t, r, gen)
		}
	}

	mk := func(g ea.Genome, fit ea.Fitness, err error) *ea.Individual {
		ind := ea.NewIndividual(g)
		ind.Fitness, ind.Evaluated, ind.Err = fit, true, err
		ind.Runtime, ind.Birth = 1234567*time.Microsecond, 11
		return ind
	}
	odd := ea.Population{
		mk(ea.Genome{0.004, 3e-05, 9.1, 5, 0.2, 3.3, 2.6}, ea.Fitness{math.NaN(), math.Inf(1)}, nil),
		mk(ea.Genome{1e21, 1e-7, math.Copysign(0, -1), 123456789012}, ea.Fitness{math.Inf(-1), 0.5}, errors.New(`<script>&"quoted"</script>`)),
		mk(nil, ea.FailureFitness(2), errors.New("tab\tnewline\n\x00\x1f ctl \u2028\u2029 end")),
		mk(ea.Genome{}, nil, errors.New("bad utf-8: \xff\xfe \xc3\x28 ok é")),
		mk(ea.Genome{math.MaxFloat64, math.SmallestNonzeroFloat64}, ea.Fitness{1, 2}, emptyError{}),
		mk(ea.Genome{-1.5}, ea.Fitness{0.1, 0.2}, fmt.Errorf("wrapped: %w", errors.New("\\ backslash"))),
	}
	for _, tc := range []struct {
		run int
		gen nsga2.GenerationRecord
	}{
		{0, nsga2.GenerationRecord{}},
		{12, nsga2.GenerationRecord{Gen: 10, Evaluated: ea.Population{}, Survivors: ea.Population{}}},
		{3, nsga2.GenerationRecord{Gen: 4, Evaluated: odd, Survivors: ea.Population{odd[5], odd[0]}, Failures: 2}},
		{10, nsga2.GenerationRecord{Gen: 123, Evaluated: odd[:1]}},
		{4095, nsga2.GenerationRecord{Gen: 99, Survivors: odd[2:3], Failures: 1}},
	} {
		checkAppendGeneration(t, tc.run, tc.gen)
	}
}

// unmarshalJSONFloatsOracle is the JSONFloats decoder before the
// []float64 fast path: every array through []interface{}.
func unmarshalJSONFloatsOracle(data []byte) (JSONFloats, error) {
	var raw []interface{}
	if err := json.Unmarshal(data, &raw); err != nil {
		return nil, err
	}
	out := make(JSONFloats, len(raw))
	for i, r := range raw {
		switch r {
		case "NaN":
			out[i] = math.NaN()
		case "+Inf", "Inf":
			out[i] = math.Inf(1)
		case "-Inf":
			out[i] = math.Inf(-1)
		default:
			v, ok := r.(float64)
			if !ok {
				return nil, fmt.Errorf("hpo: invalid float %#v", r)
			}
			out[i] = v
		}
	}
	return out, nil
}

// checkJSONFloatsDecode holds UnmarshalJSON to the oracle: the same
// accept or refuse, and on accept the same bits and the same nil-ness.
func checkJSONFloatsDecode(t testing.TB, data []byte) {
	t.Helper()
	want, wantErr := unmarshalJSONFloatsOracle(data)
	var got JSONFloats
	err := got.UnmarshalJSON(data)
	if (err == nil) != (wantErr == nil) {
		t.Fatalf("%q: error %v, oracle %v", data, err, wantErr)
	}
	if err != nil {
		return
	}
	if (got == nil) != (want == nil) || len(got) != len(want) {
		t.Fatalf("%q: %#v, oracle %#v", data, got, want)
	}
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%q: member %d is %v, oracle %v", data, i, got[i], want[i])
		}
	}
}

// FuzzJSONFloatsDecode is a differential target: UnmarshalJSON and the
// all-[]interface{} decoder it replaced accept and refuse the same
// inputs and decode them to the same bits and nil-ness.
func FuzzJSONFloatsDecode(f *testing.F) {
	for _, s := range []string{
		`[]`, `null`, ` [ ] `, `[1,2.5,-0,1e-7,3e-05]`, `[1.7976931348623157e+308,5e-324]`,
		`["NaN","+Inf","-Inf","Inf",0.5]`, `[1,null]`, `[null]`, `["null"]`, `[1e400]`,
		`["nan"]`, `[true]`, `[[1]]`, `[{}]`, `{"a":1}`, `"NaN"`, `5`, `[1,]`, `[`, ``,
		`[ 1 , "NaN" ]`, `[-1E+2,0.000001]`,
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		checkJSONFloatsDecode(t, data)
	})
}
