package service_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/ea"
	"repro/internal/hpo"
	"repro/internal/service"
	"repro/internal/surrogate"
)

// checkpointLines reads a checkpoint and splits it into its lines,
// requiring the file to end in a newline.
func checkpointLines(t *testing.T, path string) [][]byte {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(data) == 0 || data[len(data)-1] != '\n' {
		t.Fatalf("%s does not end in a newline", path)
	}
	return bytes.Split(data[:len(data)-1], []byte{'\n'})
}

// lineKinds sorts a checkpoint's lines after the header into state lines
// (returned in order) and a record count, failing on anything else.
func lineKinds(t *testing.T, lines [][]byte) (states []string, records int) {
	t.Helper()
	for i, line := range lines[1:] {
		var ln struct {
			State     string            `json:"state"`
			Run       *int              `json:"run"`
			Evaluated []json.RawMessage `json:"evaluated"`
		}
		if err := json.Unmarshal(line, &ln); err != nil {
			t.Fatalf("line %d: %v\n%s", i+2, err, line)
		}
		switch {
		case ln.State != "":
			states = append(states, ln.State)
		case ln.Run != nil && len(ln.Evaluated) > 0:
			records++
		default:
			t.Fatalf("line %d is neither a state line nor a record: %s", i+2, line)
		}
	}
	return states, records
}

// metricValue reads one un-labelled counter off /metrics.
func metricValue(t *testing.T, base, name string) int64 {
	t.Helper()
	for _, line := range strings.Split(string(getBytes(t, base+"/metrics")), "\n") {
		var v int64
		if _, err := fmt.Sscanf(line, name+" %d", &v); err == nil {
			return v
		}
	}
	t.Fatalf("/metrics has no %s", name)
	return 0
}

// TestCheckpointWritesEachRecordOnce pins the append-only format: the
// file of a finished campaign is one header, one record per (run,
// generation) and the state lines; what is on disk when a generation
// event goes out already holds that generation of every run, and stays
// on disk unchanged as a prefix of everything written later; and the
// service wrote exactly as many bytes as the file has.
func TestCheckpointWritesEachRecordOnce(t *testing.T) {
	const runs, pop, gens = 3, 4, 6
	sur := surrogate.NewEvaluator(surrogate.Config{Seed: 2023})
	dir := t.TempDir()
	svc, srv := newTestServer(t, func(cfg *service.Config) {
		// Slow enough that the events are seen while lanes are running.
		cfg.Evaluator = ea.EvaluatorFunc(func(ctx context.Context, g ea.Genome) (ea.Fitness, error) {
			time.Sleep(time.Millisecond)
			return sur.Evaluate(ctx, g)
		})
		cfg.CheckpointDir = dir
	})
	c, err := svc.Create(service.Spec{
		Tenant: "alice", Runs: runs, PopSize: pop, Generations: intp(gens), BaseSeed: 3, Parallelism: pop,
	})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, c.ID+".json")

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	var snapshots [][]byte
	for after, done := uint64(0), false; !done; {
		evs, err := c.Events().Next(ctx, after)
		if err != nil {
			t.Fatalf("waiting for events: %v", err)
		}
		for _, e := range evs {
			after = e.Seq
			switch e.Type {
			case "generation":
				snap, err := os.ReadFile(path)
				if err != nil {
					t.Fatal(err)
				}
				if n := bytes.Count(snap, []byte(`"evaluated"`)); n < runs*(e.Gen+1) {
					t.Errorf("generation %d announced with %d records on disk, want at least %d", e.Gen, n, runs*(e.Gen+1))
				}
				snapshots = append(snapshots, snap)
			case "done":
				done = true
			}
		}
	}
	if len(snapshots) != gens+1 {
		t.Fatalf("%d generation events, want %d", len(snapshots), gens+1)
	}

	final, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for i, snap := range snapshots {
		if !bytes.HasPrefix(final, snap) {
			t.Errorf("the file at generation event %d is not a prefix of the final file: something was rewritten", i)
		}
		if i > 0 && len(snap) < len(snapshots[i-1]) {
			t.Errorf("file shrank between generation events %d and %d: %d -> %d bytes", i-1, i, len(snapshots[i-1]), len(snap))
		}
	}

	lines := checkpointLines(t, path)
	var head struct {
		Format  string `json:"format"`
		Version int    `json:"version"`
		ID      string `json:"id"`
	}
	if err := json.Unmarshal(lines[0], &head); err != nil {
		t.Fatalf("header: %v\n%s", err, lines[0])
	}
	if head.Format != "repro-service-campaign" || head.Version != 2 || head.ID != c.ID {
		t.Errorf("header = %+v", head)
	}
	states, records := lineKinds(t, lines)
	if records != runs*(gens+1) {
		t.Errorf("%d record lines, want runs x (gens+1) = %d", records, runs*(gens+1))
	}
	if got := strings.Join(states, ","); got != "queued,done" {
		t.Errorf("state lines %q, want queued,done", got)
	}

	// Every byte was written once: the counters add up to the file.
	if got := metricValue(t, srv.URL, "repro_service_checkpoint_bytes_total"); got != int64(len(final)) {
		t.Errorf("checkpoint_bytes_total = %d, the file has %d bytes", got, len(final))
	}
	// The header and the queued line are one write.
	if got, want := metricValue(t, srv.URL, "repro_service_checkpoint_appends_total"), int64(len(lines)-1); got != want {
		t.Errorf("checkpoint_appends_total = %d, want %d", got, want)
	}
}

// TestCheckpointTornTailRestores kills the writer inside its last append,
// as far as a file can tell: a suspended campaign's checkpoint is cut
// inside its last record.  Restore must drop the torn line — from the
// file too, before it appends anything — and the finished campaign must
// serve the bytes of one that was never interrupted.
func TestCheckpointTornTailRestores(t *testing.T) {
	const pop, gens = 5, 4
	spec := service.Spec{
		Tenant: "alice", Name: "torn", Runs: 2, PopSize: pop, Generations: intp(gens), BaseSeed: 21, Parallelism: pop,
	}
	body, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	_, refSrv := newTestServer(t, nil)
	refSt := postCampaign(t, refSrv.URL, string(body))
	waitStatusHTTP(t, refSrv.URL, refSt.ID, service.StateDone)

	// Strand the campaign part-way: the evaluator scores three
	// populations' worth and then holds everything until the drain.
	dir := t.TempDir()
	held := &heldEvaluator{inner: surrogate.NewEvaluator(surrogate.Config{Seed: 2023}), budget: 3 * pop}
	svc1 := newTestService(t, func(cfg *service.Config) {
		cfg.Evaluator = held
		cfg.CheckpointDir = dir
		cfg.DisableMemo = true
	})
	c1, err := svc1.Create(spec)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; atomic.LoadInt64(&held.budget) >= 0 || c1.Result() == nil; i++ {
		if i == 4000 {
			t.Fatalf("campaign never got stranded: budget %d, status %+v", atomic.LoadInt64(&held.budget), c1.Status())
		}
		time.Sleep(time.Millisecond)
	}
	drainCtx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := svc1.Drain(drainCtx); err != nil {
		t.Fatal(err)
	}
	if st := c1.State(); st != service.StateSuspended {
		t.Fatalf("after drain: %s, want suspended", st)
	}
	whole, err := os.ReadFile(filepath.Join(dir, c1.ID+".json"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.HasSuffix(whole, []byte("{\"state\":\"suspended\"}\n")) {
		t.Fatalf("suspended campaign's file does not end in its state line:\n%s", whole)
	}
	// The last record: the line before the suspended state line.
	end := bytes.LastIndexByte(whole[:len(whole)-1], '\n') // its newline
	start := bytes.LastIndexByte(whole[:end], '\n') + 1
	if !bytes.Contains(whole[start:end], []byte(`"evaluated"`)) {
		t.Fatalf("last line before the state line is not a record: %s", whole[start:end])
	}

	// Subtest names stay fixed: the record's length depends on which lane
	// wrote it last, so it goes to the log, not into the name.
	for _, tc := range []struct {
		name string
		cut  int
	}{
		{"keep_1_byte", start + 1},
		{"keep_half", (start + end) / 2},
		{"drop_last_byte", end - 1},
		{"drop_newline", end},
	} {
		cut := tc.cut
		t.Run(tc.name, func(t *testing.T) {
			t.Logf("cut %d of the record's %d bytes", cut-start, end-start)
			dir2 := t.TempDir()
			path := filepath.Join(dir2, c1.ID+".json")
			if err := os.WriteFile(path, whole[:cut], 0o644); err != nil {
				t.Fatal(err)
			}
			svc2, srv2 := newTestServer(t, func(cfg *service.Config) { cfg.CheckpointDir = dir2 })
			if n, err := svc2.Restore(); err != nil || n != 1 {
				t.Fatalf("restore: %d campaigns, err %v", n, err)
			}
			c2 := soleCampaign(t, svc2, "alice")
			waitState(t, c2, service.StateDone)
			for _, doc := range []string{"frontier", "lcurve"} {
				got := getBytes(t, srv2.URL+"/v1/campaigns/"+c2.ID+"/"+doc)
				ref := getBytes(t, refSrv.URL+"/v1/campaigns/"+refSt.ID+"/"+doc)
				if !bytes.Equal(got, ref) {
					t.Errorf("%s diverged after the torn tail:\nuninterrupted: %s\nresumed:       %s", doc, ref, got)
				}
			}
			// The file is whole again: it ends in a newline, every line
			// parses, and the torn record was written again in full.
			lines := checkpointLines(t, path)
			states, records := lineKinds(t, lines)
			if records != spec.Runs*(gens+1) {
				t.Errorf("%d record lines, want %d", records, spec.Runs*(gens+1))
			}
			if got := strings.Join(states, ","); got != "queued,done" {
				t.Errorf("state lines %q, want queued,done", got)
			}
			if !bytes.HasPrefix(mustRead(t, path), whole[:start]) {
				t.Error("the lines before the torn one changed")
			}
			// And a third service can replay it.
			svc3 := newTestService(t, func(cfg *service.Config) { cfg.CheckpointDir = dir2 })
			if n, err := svc3.Restore(); err != nil || n != 0 {
				t.Fatalf("replaying the finished file: %d requeued, err %v", n, err)
			}
			if st := soleCampaign(t, svc3, "alice").Status(); st.State != service.StateDone || st.GensDone != gens {
				t.Errorf("replayed status = %+v", st)
			}
		})
	}
}

func mustRead(t *testing.T, path string) []byte {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// restoreMustFail restores dir into a fresh service, requires an error
// holding every one of wants, and requires the file to be untouched.
func restoreMustFail(t *testing.T, dir, file string, wants ...string) {
	t.Helper()
	path := filepath.Join(dir, file)
	before := mustRead(t, path)
	svc := newTestService(t, func(cfg *service.Config) { cfg.CheckpointDir = dir })
	_, err := svc.Restore()
	if err == nil {
		t.Fatalf("restore accepted %s", file)
	}
	for _, want := range append(wants, file) {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not say %q", err, want)
		}
	}
	if !bytes.Equal(mustRead(t, path), before) {
		t.Errorf("%s changed under a refused restore", file)
	}
	if n := len(svc.Campaigns("")); n != 0 {
		t.Errorf("%d campaigns registered by a refused restore", n)
	}
}

// TestRestoreRejectsCorruptMiddleLine: only a torn *tail* is a crash.  A
// complete line that does not parse, a record for a run the spec does not
// have, and a record out of its run's order are damage, and are reported
// with file and line number instead of being skipped.
func TestRestoreRejectsCorruptMiddleLine(t *testing.T) {
	const id = "00000000-0000-4000-8000-000000000003"
	spec := service.Spec{Tenant: "alice", Name: "dmg", Runs: 2, PopSize: 4, Generations: intp(4), BaseSeed: 9}
	res, err := hpo.RunCampaign(context.Background(), hpo.CampaignConfig{
		Runs: 2, PopSize: 4, Generations: 2, Evaluator: surrogate.NewEvaluator(surrogate.Config{Seed: 2023}), BaseSeed: 9,
	})
	if err != nil {
		t.Fatal(err)
	}
	good := t.TempDir()
	writeCheckpoint(t, good, id, spec, service.StateSuspended, res)
	// header, run 0 gens 0-2 (lines 2-4), run 1 gens 0-2 (5-7), state (8).
	lines := checkpointLines(t, filepath.Join(good, id+".json"))
	if len(lines) != 8 {
		t.Fatalf("helper wrote %d lines, want 8", len(lines))
	}
	damage := func(edit func(lines [][]byte) [][]byte) string {
		dir := t.TempDir()
		out := edit(append([][]byte(nil), lines...))
		data := append(bytes.Join(out, []byte{'\n'}), '\n')
		if err := os.WriteFile(filepath.Join(dir, id+".json"), data, 0o644); err != nil {
			t.Fatal(err)
		}
		return dir
	}

	t.Run("unparsable", func(t *testing.T) {
		dir := damage(func(l [][]byte) [][]byte {
			l[3] = l[3][:len(l[3])/2] // a torn line, but not the last
			return l
		})
		restoreMustFail(t, dir, id+".json", "line 4")
	})
	t.Run("blank", func(t *testing.T) {
		dir := damage(func(l [][]byte) [][]byte {
			l[5] = nil
			return l
		})
		restoreMustFail(t, dir, id+".json", "line 6")
	})
	t.Run("run_out_of_range", func(t *testing.T) {
		dir := damage(func(l [][]byte) [][]byte {
			l[4] = bytes.Replace(l[4], []byte(`{"run":1,`), []byte(`{"run":2,`), 1)
			return l
		})
		restoreMustFail(t, dir, id+".json", "line 5", "run 2")
	})
	t.Run("generation_skipped", func(t *testing.T) {
		dir := damage(func(l [][]byte) [][]byte {
			return append(l[:2], l[3:]...) // run 0 loses generation 1
		})
		restoreMustFail(t, dir, id+".json", "line 3", "generation 2")
	})
	t.Run("generation_repeated", func(t *testing.T) {
		dir := damage(func(l [][]byte) [][]byte {
			l[6] = l[5]
			return l
		})
		restoreMustFail(t, dir, id+".json", "line 7", "generation 1")
	})
}

// TestRestoreRefusesV1Untouched: the version-1 whole-document checkpoint
// is not read any more.  It, and any other file that does not start with
// a version-2 header, is refused by name and left byte for byte as it
// was — in particular it is not mistaken for a torn tail, although it
// has no newline.
func TestRestoreRefusesV1Untouched(t *testing.T) {
	spec := service.Spec{Tenant: "alice", Name: "old", Runs: 1, PopSize: 4, Generations: intp(2), BaseSeed: 9}
	// The version-1 checkpoint embedded hpo's version-1 campaign document.
	doc := `{"format":"repro-hpo-campaign","version":1,"runs":[{"generations":[{"gen":0,"evaluated":[` +
		`{"id":"6f1c2b7e-3a4d-4e5f-8a9b-0c1d2e3f4a5b","genome":[0.004,3e-05,9.1,5,0.2,3.3,2.6],"fitness":[0.0026,0.069],"runtime_ms":0,"birth":0}],` +
		`"survivor_ids":["6f1c2b7e-3a4d-4e5f-8a9b-0c1d2e3f4a5b"],"failures":0}]}]}`
	v1, err := json.Marshal(map[string]interface{}{
		"format":  "repro-service-campaign",
		"version": 1,
		"meta": map[string]interface{}{
			"id": "00000000-0000-4000-8000-000000000004", "tenant": spec.Tenant,
			"created": time.Unix(1700000000, 0).UTC(), "spec": spec, "state": service.StateSuspended,
		},
		"campaign": json.RawMessage(doc),
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		data []byte
		want string
	}{
		{"v1", v1, "unsupported version 1"},
		{"foreign", []byte(`{"format":"something-else","version":2}`), "not a service checkpoint"},
		{"not_json", []byte("run 0 gen 0\nrun 0 gen 1"), "old.json"},
		{"short_header", []byte(`{"format":"repro-service-campaign","version":2,"id":"x"`), "old.json"},
		{"bare_header", []byte(`{"format":"repro-service-campaign","version":2,"id":"x","tenant":"alice","spec":{"tenant":"alice"}}`), "incomplete"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			if err := os.WriteFile(filepath.Join(dir, "old.json"), tc.data, 0o644); err != nil {
				t.Fatal(err)
			}
			restoreMustFail(t, dir, "old.json", tc.want)
		})
	}
}

// TestRestoreIgnoresEvalTimeoutField: a spec once carried eval_timeout_ms, a
// second evaluation cap beside the worker's.  A checkpoint whose header
// still holds it restores and runs with the field ignored: evaluations
// that take 5 ms each are not cut at its 1 ms.
func TestRestoreIgnoresEvalTimeoutField(t *testing.T) {
	const id = "00000000-0000-4000-8000-000000000065"
	dir := t.TempDir()
	header := `{"format":"repro-service-campaign","version":2,"id":"` + id + `","tenant":"alice","created":"2026-01-02T03:04:05Z",` +
		`"spec":{"tenant":"alice","name":"legacy","runs":1,"pop_size":3,"generations":1,"base_seed":4,"eval_timeout_ms":1}}` + "\n"
	if err := os.WriteFile(filepath.Join(dir, id+".json"), []byte(header+`{"state":"queued"}`+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	sur := surrogate.NewEvaluator(surrogate.Config{Seed: 2023})
	svc := newTestService(t, func(cfg *service.Config) {
		cfg.CheckpointDir = dir
		cfg.DisableMemo = true
		cfg.Evaluator = ea.EvaluatorFunc(func(ctx context.Context, g ea.Genome) (ea.Fitness, error) {
			select {
			case <-time.After(5 * time.Millisecond):
				return sur.Evaluate(ctx, g)
			case <-ctx.Done():
				return nil, ctx.Err()
			}
		})
	})
	if n, err := svc.Restore(); err != nil || n != 1 {
		t.Fatalf("restore: %d requeued, err %v", n, err)
	}
	c := soleCampaign(t, svc, "alice")
	waitState(t, c, service.StateDone)
	if st := c.Status(); st.Evaluations != 6 || st.Failures != 0 {
		t.Fatalf("status = %+v, want 6 evaluations and no failures", st)
	}
}

// TestCreateFailsWithoutCheckpoint: a campaign whose header cannot be
// written is not admitted — every later append would fail too, and no
// Restore could find it.  The creation fails with a 500 and the tenant's
// quota slot is given back.
func TestCreateFailsWithoutCheckpoint(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "ckpt")
	svc, srv := newTestServer(t, func(cfg *service.Config) {
		cfg.CheckpointDir = dir
		cfg.MaxCampaignsPerTenant = 1
	})
	// The directory New made is replaced by a regular file.
	if err := os.Remove(dir); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(dir, []byte("in the way"), 0o644); err != nil {
		t.Fatal(err)
	}
	const body = `{"tenant":"alice","runs":1,"pop_size":4,"generations":1}`
	for i := 0; i < 2; i++ { // twice: the first failure did not use up the quota of 1
		resp, err := http.Post(srv.URL+"/v1/campaigns", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusInternalServerError {
			t.Fatalf("create %d without a checkpoint directory: status %d, want 500", i, resp.StatusCode)
		}
	}
	if n := len(svc.Campaigns("")); n != 0 {
		t.Fatalf("%d campaigns registered, want 0", n)
	}
	// With the directory back, the same tenant's one slot is free.
	if err := os.Remove(dir); err != nil {
		t.Fatal(err)
	}
	if err := os.Mkdir(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	st := postCampaign(t, srv.URL, body)
	waitStatusHTTP(t, srv.URL, st.ID, service.StateDone)
	if got := string(checkpointLines(t, filepath.Join(dir, st.ID+".json"))[1]); got != `{"state":"queued"}` {
		t.Errorf("line 2 = %s, want the queued state line", got)
	}
}

// TestCancelQueuedWritesStateLine: the file of a campaign cancelled
// before admission is header, queued, cancelled.
func TestCancelQueuedWritesStateLine(t *testing.T) {
	dir := t.TempDir()
	be := &blockingEvaluator{release: make(chan struct{})}
	svc := newTestService(t, func(cfg *service.Config) {
		cfg.Evaluator = be
		cfg.CheckpointDir = dir
		cfg.MaxConcurrent = 1
	})
	if _, err := svc.Create(onePerCampaign("alice", 1)); err != nil {
		t.Fatal(err)
	}
	queued, err := svc.Create(onePerCampaign("alice", 2))
	if err != nil {
		t.Fatal(err)
	}
	if err := svc.Cancel(queued.ID); err != nil {
		t.Fatal(err)
	}
	if st := queued.State(); st != service.StateCancelled {
		t.Fatalf("state %s after cancel, want cancelled", st)
	}
	states, records := lineKinds(t, checkpointLines(t, filepath.Join(dir, queued.ID+".json")))
	if got := strings.Join(states, ","); got != "queued,cancelled" || records != 0 {
		t.Errorf("state lines %q with %d records, want queued,cancelled and none", got, records)
	}
	if err := svc.Cancel(queued.ID); err == nil {
		t.Error("second cancel of a cancelled campaign accepted")
	}
}

// TestCheckpointAppendFailureStopsCheckpointing: when an append fails the
// campaign carries on in memory, but nothing more goes to its file — a
// file with a hole in it would stop every later Restore — and the failure
// is logged once, not once per generation.
func TestCheckpointAppendFailureStopsCheckpointing(t *testing.T) {
	dir := t.TempDir()
	be := &blockingEvaluator{release: make(chan struct{})}
	var mu sync.Mutex
	var errorsLogged []string
	svc := newTestService(t, func(cfg *service.Config) {
		cfg.Evaluator = be
		cfg.CheckpointDir = dir
		cfg.Logf = func(format string, args ...interface{}) {
			if line := fmt.Sprintf(format, args...); strings.HasPrefix(line, "checkpoint_error") {
				mu.Lock()
				errorsLogged = append(errorsLogged, line)
				mu.Unlock()
			}
		}
	})
	c, err := svc.Create(service.Spec{Tenant: "alice", Runs: 1, PopSize: 2, Generations: intp(3), Parallelism: 2})
	if err != nil {
		t.Fatal(err)
	}
	// Every evaluation is held, so nothing has been appended yet: the
	// file goes away under the campaign, and appends do not create files.
	path := filepath.Join(dir, c.ID+".json")
	if err := os.Remove(path); err != nil {
		t.Fatal(err)
	}
	close(be.release)
	waitState(t, c, service.StateDone)
	if st := c.Status(); st.GensDone != 3 || st.Evaluations != 8 {
		t.Errorf("status after losing the checkpoint = %+v, want the whole campaign", st)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Errorf("checkpoint came back after its first append failed (stat err %v)", err)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(errorsLogged) != 1 || !strings.Contains(errorsLogged[0], "checkpointing stopped") {
		t.Errorf("checkpoint errors logged: %q, want exactly one saying checkpointing stopped", errorsLogged)
	}
}
