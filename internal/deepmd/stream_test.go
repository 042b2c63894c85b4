package deepmd

import (
	"bytes"
	"context"
	"testing"

	"repro/internal/dataset"
	"repro/internal/dataset/stream"
)

// streamTrainConfig is the shared seed configuration for the streamed
// and thread-invariance training tests.
func streamTrainConfig() TrainConfig {
	return TrainConfig{
		Steps: 6, BatchSize: 2, StartLR: 1e-3, StopLR: 1e-5,
		Workers: 2, DispFreq: 2, Seed: 9,
	}
}

// TestTrainStreamedBitIdentical is the out-of-core acceptance test:
// training against a stream.Store whose LRU budget holds only a fraction
// of the dataset must produce byte-for-byte the learning curve of the
// same training against the fully materialized dataset — while actually
// evicting (proving the run was out-of-core, not incidentally resident).
func TestTrainStreamedBitIdentical(t *testing.T) {
	d := tinyData(t, 9)
	train, val := d.Split(0.33)
	trainDir, valDir := t.TempDir(), t.TempDir()
	if err := train.Save(trainDir, 2); err != nil {
		t.Fatal(err)
	}
	if err := val.Save(valDir, 2); err != nil {
		t.Fatal(err)
	}

	run := func(tr, vl FrameSource) string {
		m := newTestModel(t, 23)
		var buf bytes.Buffer
		if _, err := TrainSource(context.Background(), m, tr, vl, streamTrainConfig(), &buf); err != nil {
			t.Fatalf("TrainSource: %v", err)
		}
		return buf.String()
	}
	memOut := run(train, val)

	// Budget: two frames of the six-frame training set; prefetch on so the
	// background worker races the training loop (and still changes nothing).
	width := 3 * train.NAtoms()
	ts, err := stream.Open(trainDir, stream.Options{
		CacheBytes: 2 * (int64(16*width) + 64), Prefetch: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer ts.Close()
	vs, err := stream.Open(valDir, stream.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer vs.Close()
	if ts.FrameBytes() <= ts.Stats().CacheBudget {
		t.Fatalf("training set %d B fits budget %d B; test would not be out-of-core",
			ts.FrameBytes(), ts.Stats().CacheBudget)
	}

	streamOut := run(ts, vs)
	if memOut != streamOut {
		t.Fatalf("streamed lcurve differs from in-memory:\n--- in-memory ---\n%s--- streamed ---\n%s", memOut, streamOut)
	}
	st := ts.Stats()
	if st.Evictions == 0 {
		t.Fatal("no evictions: the streamed run was not out-of-core")
	}
	if st.CachedBytes > st.CacheBudget {
		t.Fatalf("CachedBytes %d exceeds budget %d", st.CachedBytes, st.CacheBudget)
	}
}

// TestEvalErrorsSourcePropagatesReadFailure: a frame source whose read
// fails must surface the error (deterministically, first failed frame in
// frame order) instead of evaluating garbage.
func TestEvalErrorsSourcePropagatesReadFailure(t *testing.T) {
	d := tinyData(t, 4)
	m := newTestModel(t, 23)
	src := &failingSource{Dataset: d, failAt: 2}
	if _, _, err := EvalErrorsSource(m, src, 0); err == nil {
		t.Fatal("EvalErrorsSource swallowed a frame read error")
	}
}

// failingSource wraps a dataset and fails reads of one frame index.
type failingSource struct {
	*dataset.Dataset
	failAt int
}

func (f *failingSource) Frame(i int) (*dataset.Frame, error) {
	if i == f.failAt {
		return nil, errFailingSource
	}
	return f.Dataset.Frame(i)
}

var errFailingSource = errStr("failingSource: injected read failure")

type errStr string

func (e errStr) Error() string { return string(e) }
