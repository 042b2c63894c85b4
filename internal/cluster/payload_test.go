package cluster

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/ea"
)

// sameBits reports whether a and b hold the same values bit for bit.
func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// TestPayloadWireBytes pins the payload layout: a kind byte, then each
// value's IEEE-754 bits little-endian.
func TestPayloadWireBytes(t *testing.T) {
	for _, tc := range []struct {
		kind payloadKind
		v    []float64
		want string
	}{
		{genomeKind, []float64{0.1, -2, 0.5, 3, 1e-05, 7, 0}, "67" +
			"9a9999999999b93f" + "00000000000000c0" + "000000000000e03f" + "0000000000000840" +
			"f168e388b5f8e43e" + "0000000000001c40" + "0000000000000000"},
		{fitnessKind, []float64{0.0026, 0.069}, "66" + "94f6065f984c653f" + "448b6ce7fba9b13f"},
	} {
		got, err := appendPayload(nil, tc.kind, tc.v)
		if err != nil {
			t.Fatalf("%s %v: %v", tc.kind, tc.v, err)
		}
		if hex.EncodeToString(got) != tc.want {
			t.Errorf("%s %v:\n got  %x\n want %s", tc.kind, tc.v, got, tc.want)
		}
		back, err := parsePayload(got, tc.kind)
		if err != nil || !sameBits(back, tc.v) {
			t.Errorf("%s: %x decodes to %v, %v", tc.kind, got, back, err)
		}
	}
}

func TestPayloadRefusals(t *testing.T) {
	nanBits := binary.LittleEndian.AppendUint64([]byte{'f'}, math.Float64bits(math.NaN()))
	for _, tc := range []struct {
		name string
		in   []byte
		kind payloadKind
		want string
	}{
		{"empty", nil, genomeKind, "not a genome payload"},
		{"wrong kind", []byte{'f'}, genomeKind, "not a genome payload"},
		{"short value", []byte{'f', 0, 0, 0}, fitnessKind, "cluster: bad fitness payload: 3 value bytes"},
		{"NaN bits", nanBits, fitnessKind, "cluster: bad fitness payload: fitness[0] is NaN"},
		{"-Inf bits", binary.LittleEndian.AppendUint64([]byte{'g', 0, 0, 0, 0, 0, 0, 0, 0}, math.Float64bits(math.Inf(-1))),
			genomeKind, "cluster: bad genome payload: genome[1] is -Inf"},
	} {
		if v, err := parsePayload(tc.in, tc.kind); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: %v, %v; want an error containing %q", tc.name, v, err, tc.want)
		}
	}
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		_, err := appendPayload(nil, fitnessKind, []float64{1, bad})
		if want := fmt.Sprintf("cluster: fitness[1] is %v", bad); err == nil || err.Error() != want {
			t.Errorf("encoding %v: %v, want %q", bad, err, want)
		}
	}
	if v, err := parsePayload([]byte{'g'}, genomeKind); v != nil || err != nil {
		t.Errorf("a payload with no values decodes to %#v, %v; want nil", v, err)
	}
}

// FuzzPayloadCodec reads its input two ways: as little-endian float64
// bits for the encoder, which must refuse a non-finite vector and
// round-trip a finite one bit for bit; and as raw bytes for the decoder,
// which must not panic and must re-encode whatever it accepts to the
// same bytes.
func FuzzPayloadCodec(f *testing.F) {
	for _, s := range []string{
		"67" + "9a9999999999b93f" + "00000000000000c0" + "000000000000e03f" + "0000000000000840" +
			"f168e388b5f8e43e" + "0000000000001c40" + "0000000000000000",
		"66" + "94f6065f984c653f" + "448b6ce7fba9b13f",
		"67", "66", "",
		"66" + "010000000000f87f", // NaN bits
		"78" + "000000000000f03f", // unknown kind
		"67" + "000000",           // torn value
	} {
		b, err := hex.DecodeString(s)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	var bits []byte
	for _, v := range []float64{math.Copysign(0, -1), 1e-6, 1e21, math.NaN(), 0.1} {
		bits = binary.LittleEndian.AppendUint64(bits, math.Float64bits(v))
	}
	f.Add(bits)

	f.Fuzz(func(t *testing.T, in []byte) {
		v := make([]float64, len(in)/8)
		finite := true
		for i := range v {
			v[i] = math.Float64frombits(binary.LittleEndian.Uint64(in[8*i:]))
			finite = finite && !math.IsNaN(v[i]) && !math.IsInf(v[i], 0)
		}
		for _, kind := range []payloadKind{genomeKind, fitnessKind} {
			enc, err := appendPayload(nil, kind, v)
			if (err == nil) != finite {
				t.Fatalf("%s %v: encode error %v", kind, v, err)
			}
			if err == nil {
				back, err := parsePayload(enc, kind)
				if err != nil || !sameBits(back, v) || (back == nil) != (len(v) == 0) {
					t.Fatalf("%s: round trip %v -> %x -> %v, %v", kind, v, enc, back, err)
				}
			}
			got, err := parsePayload(in, kind)
			if err != nil {
				continue
			}
			re, err := appendPayload(nil, kind, got)
			if err != nil || !bytes.Equal(re, in) {
				t.Fatalf("%s: %x decodes to %v, which re-encodes to %x, %v", kind, in, got, re, err)
			}
		}
	})
}

// TestNaNPayloadEndsAsMaxint runs NaN through a cluster campaign's
// evaluation pool from both ends: a NaN gene cannot be encoded on the
// client, a NaN objective cannot be encoded on the worker, a worker that
// sends NaN bits anyway is refused by the client, and every way the
// individual gets the MAXINT failure fitness (§2.2.4).
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
		&Evaluator{Client: lc.Scheduler}, ea.PoolConfig{Parallelism: 4, Objectives: 2})
	settled()
	if got := out[0].Fitness; out[0].Err != nil || got[0] != 0.25 || got[1] != 0.75 {
		t.Errorf("finite individual: fitness %v, err %v", got, out[0].Err)
	}
	for i, want := range map[int]string{1: "cluster: genome[0] is NaN", 2: "cluster: fitness[0] is NaN", 3: "cluster: genome[1] is +Inf"} {
		if !out[i].Evaluated || !out[i].Fitness.IsFailure() {
			t.Errorf("individual %d: fitness %v, want MAXINT", i, out[i].Fitness)
		}
		if out[i].Err == nil || !strings.Contains(out[i].Err.Error(), want) {
			t.Errorf("individual %d: err %v, want the payload codec's %q", i, out[i].Err, want)
		}
	}
	if st := lc.Scheduler.Stats(); st.Submitted != 2 || st.Failed != 1 {
		t.Errorf("stats %+v: want the two finite genomes submitted, the NaN fitness failed", st)
	}

	t.Run("raw handler", func(t *testing.T) {
		nanBits := binary.LittleEndian.AppendUint64([]byte{byte(fitnessKind)}, math.Float64bits(math.NaN()))
		raw := func(context.Context, []byte) ([]byte, error) {
			return binary.LittleEndian.AppendUint64(nanBits, math.Float64bits(1)), nil
		}
		lc, err := NewLocalCluster(1, raw, 0)
		if err != nil {
			t.Fatal(err)
		}
		defer lc.Close()
		settled := watchBooks(t, lc.Scheduler)
		out := ea.EvalPool(context.Background(), ea.Source(ea.Population{ea.NewIndividual(ea.Genome{0.25, 1})}), 1,
			&Evaluator{Client: lc.Scheduler}, ea.PoolConfig{Parallelism: 1, Objectives: 2})
		settled()
		if !out[0].Evaluated || !out[0].Fitness.IsFailure() {
			t.Errorf("fitness %v, want MAXINT", out[0].Fitness)
		}
		if want := "cluster: bad fitness payload: fitness[0] is NaN"; out[0].Err == nil || !strings.Contains(out[0].Err.Error(), want) {
			t.Errorf("err %v, want %q", out[0].Err, want)
		}
		if st := lc.Scheduler.Stats(); st.Submitted != 1 || st.Failed != 0 {
			t.Errorf("stats %+v: want one task submitted and answered", st)
		}
	})
}
