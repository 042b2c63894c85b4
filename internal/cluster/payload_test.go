package cluster

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"math"
	"strings"
	"testing"

	"repro/internal/ea"
)

// genomeTask and fitnessResult are the encoding/json shapes of the two
// evaluation payloads: the oracle appendPayload and parsePayload are
// held to.
type genomeTask struct {
	Genome []float64 `json:"genome"`
}

type fitnessResult struct {
	Fitness []float64 `json:"fitness"`
}

// marshalOracle is what encoding/json writes for v under key.
func marshalOracle(key string, v []float64) ([]byte, error) {
	if key == genomeKey {
		return json.Marshal(genomeTask{Genome: v})
	}
	return json.Marshal(fitnessResult{Fitness: v})
}

// unmarshalOracle is what encoding/json reads from data under key.
func unmarshalOracle(key string, data []byte) ([]float64, error) {
	if key == genomeKey {
		var g genomeTask
		err := json.Unmarshal(data, &g)
		return g.Genome, err
	}
	var f fitnessResult
	err := json.Unmarshal(data, &f)
	return f.Fitness, err
}

func sameFloats(a, b []float64) bool {
	if (a == nil) != (b == nil) || len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// checkEncode holds appendPayload to json.Marshal for one slice: the
// same bytes (or the same error), and a bit-exact round trip.
func checkEncode(t *testing.T, key string, v []float64) {
	t.Helper()
	want, wantErr := marshalOracle(key, v)
	got, err := appendPayload(nil, key, v)
	if (err != nil) != (wantErr != nil) {
		t.Fatalf("%s %v: error %v, encoding/json %v", key, v, err, wantErr)
	}
	if err != nil {
		if err.Error() != wantErr.Error() {
			t.Fatalf("%s %v: error %q, encoding/json %q", key, v, err, wantErr)
		}
		return
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("%s %v:\n got  %s\n json %s", key, v, got, want)
	}
	back, err := parsePayload(got, key)
	if err != nil {
		t.Fatalf("%s: decoding own encoding %s: %v", key, got, err)
	}
	if !sameFloats(back, v) {
		t.Fatalf("%s: round trip %v -> %s -> %v", key, v, got, back)
	}
}

// checkDecode holds parsePayload to json.Unmarshal: whatever it accepts,
// encoding/json accepts too and decodes to the same bits.
func checkDecode(t *testing.T, key string, data []byte) {
	t.Helper()
	got, err := parsePayload(data, key)
	if err != nil {
		return
	}
	want, wantErr := unmarshalOracle(key, data)
	if wantErr != nil {
		t.Fatalf("%s: accepted %q, which encoding/json rejects: %v", key, data, wantErr)
	}
	if !sameFloats(got, want) {
		t.Fatalf("%s: %q decodes to %v, encoding/json %v", key, data, got, want)
	}
}

func TestPayloadCodecMatchesEncodingJSON(t *testing.T) {
	edges := []float64{
		0, math.Copysign(0, -1), 1, -1, 0.1, 1.0 / 3, 123456.789,
		1e-6, math.Nextafter(1e-6, 0), -1e-6, 1e-7, 1.5e-9, 1e-300,
		1e21, math.Nextafter(1e21, 0), -1e21, 1e22, 1.2345e100,
		math.SmallestNonzeroFloat64, math.MaxFloat64, -math.MaxFloat64,
		math.Float64frombits(1), 9007199254740993,
	}
	for _, key := range []string{genomeKey, fitnessKey} {
		checkEncode(t, key, nil)
		checkEncode(t, key, []float64{})
		checkEncode(t, key, edges)
		for _, f := range edges {
			checkEncode(t, key, []float64{f})
		}
		for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
			checkEncode(t, key, []float64{1, bad})
		}
	}
	for _, in := range []string{
		`{"genome":[1,2]}`, `{"genome":null}`, `{"genome":[]}`, `{"genome":[-0]}`,
		`{"genome":[1E5,2e+3,-4.25e-2]}`, `{"genome":[1e400]}`, `{"genome":[1,]}`,
		`{"genome":[,1]}`, `{"genome":[01]}`, `{"genome":[1.]}`, `{"genome":[.5]}`,
		`{"genome":[null]}`, `{"genome": [1]}`, `{"Genome":[1]}`, `{"genome":[1]} `,
		`{"genome":[1],"x":2}`, `{"genome":"1"}`, `{"genome":[1e]}`, `{"genome":[-]}`,
		`{"fitness":[0.5,1]}`, `{"genome":[NaN]}`, `{"genome":[+1]}`, `{}`, ``,
	} {
		checkDecode(t, genomeKey, []byte(in))
		checkDecode(t, fitnessKey, []byte(in))
	}
	if _, err := parsePayload([]byte(`{"genome":[1],"fitness":[2]}`), genomeKey); err == nil {
		t.Error("a payload with a second key was accepted")
	}
}

// FuzzPayloadCodec reads its input two ways: as little-endian float64
// bits for the encoder, which must write json.Marshal's bytes (or fail
// with its error) and round-trip bit for bit; and as raw bytes for the
// decoder, which may accept only what json.Unmarshal accepts, with the
// same bits.
func FuzzPayloadCodec(f *testing.F) {
	for _, s := range []string{
		`{"genome":[0.5,-1.5]}`, `{"genome":[1]}`, `{"fitness":[0.00105,0.0375]}`,
		`{"genome":null}`, `{"fitness":[]}`, `{"genome":[1e-7,-0,1e+21]}`,
		`{"genome":[1.7976931348623157e+308,5e-324]}`,
	} {
		f.Add([]byte(s))
	}
	var bits []byte
	for _, v := range []float64{math.Copysign(0, -1), 1e-6, 1e21, math.NaN(), 0.1} {
		bits = binary.LittleEndian.AppendUint64(bits, math.Float64bits(v))
	}
	f.Add(bits)

	f.Fuzz(func(t *testing.T, in []byte) {
		v := make([]float64, len(in)/8)
		for i := range v {
			v[i] = math.Float64frombits(binary.LittleEndian.Uint64(in[8*i:]))
		}
		for _, key := range []string{genomeKey, fitnessKey} {
			checkEncode(t, key, v)
			checkDecode(t, key, in)
		}
	})
}

// TestNaNPayloadEndsAsMaxint runs NaN through a cluster campaign's
// evaluation pool from both ends: a NaN gene cannot be encoded on the
// client, a NaN objective cannot be encoded on the worker, and either
// way the individual gets the MAXINT failure fitness (§2.2.4).
func TestNaNPayloadEndsAsMaxint(t *testing.T) {
	inner := ea.EvaluatorFunc(func(_ context.Context, g ea.Genome) (ea.Fitness, error) {
		if g[0] > 0.5 {
			return ea.Fitness{math.NaN(), 1}, nil
		}
		return ea.Fitness{g[0], 1 - g[0]}, nil
	})
	lc, err := NewLocalCluster(2, EvalHandler(inner), 0)
	if err != nil {
		t.Fatal(err)
	}
	defer lc.Close()
	settled := watchBooks(t, lc.Scheduler)

	pop := ea.Population{
		ea.NewIndividual(ea.Genome{0.25, 1}),
		ea.NewIndividual(ea.Genome{math.NaN(), 1}), // never leaves the client
		ea.NewIndividual(ea.Genome{0.75, 1}),       // NaN fitness on the worker
		ea.NewIndividual(ea.Genome{0.5, math.Inf(1)}),
	}
	out := ea.EvalPool(context.Background(), ea.Source(pop), len(pop),
		&Evaluator{Client: lc.Client}, ea.PoolConfig{Parallelism: 4, Objectives: 2})
	settled()
	if got := out[0].Fitness; out[0].Err != nil || got[0] != 0.25 || got[1] != 0.75 {
		t.Errorf("finite individual: fitness %v, err %v", got, out[0].Err)
	}
	for _, i := range []int{1, 2, 3} {
		if !out[i].Evaluated || !out[i].Fitness.IsFailure() {
			t.Errorf("individual %d: fitness %v, want MAXINT", i, out[i].Fitness)
		}
		if out[i].Err == nil || !strings.Contains(out[i].Err.Error(), "json: unsupported value") {
			t.Errorf("individual %d: err %v, want encoding/json's unsupported-value error", i, out[i].Err)
		}
	}
	if st := lc.Scheduler.Stats(); st.Submitted != 2 || st.Failed != 1 {
		t.Errorf("stats %+v: want the two finite genomes submitted, the NaN fitness failed", st)
	}
}
