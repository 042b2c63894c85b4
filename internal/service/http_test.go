package service_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/hpo"
	"repro/internal/service"
)

func newTestServer(t *testing.T, mutate func(*service.Config)) (*service.Service, *httptest.Server) {
	t.Helper()
	svc := newTestService(t, mutate)
	srv := httptest.NewServer(svc.Handler())
	t.Cleanup(srv.Close)
	return svc, srv
}

func getJSON(t *testing.T, url string, out interface{}) *http.Response {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if out != nil {
		if err := json.Unmarshal(body, out); err != nil {
			t.Fatalf("decoding %s: %v\n%s", url, err, body)
		}
	}
	return resp
}

func postCampaign(t *testing.T, base, specJSON string) service.Status {
	t.Helper()
	resp, err := http.Post(base+"/v1/campaigns", "application/json", strings.NewReader(specJSON))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("create: status %d: %s", resp.StatusCode, body)
	}
	var st service.Status
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}

func waitStatusHTTP(t *testing.T, base, id string, want service.State) service.Status {
	t.Helper()
	var st service.Status
	for i := 0; i < 4000; i++ {
		getJSON(t, base+"/v1/campaigns/"+id, &st)
		if st.State == want {
			return st
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("campaign %s stuck in %s over HTTP, want %s", id, st.State, want)
	return st
}

func TestHTTPCampaignLifecycle(t *testing.T) {
	// The campaign runs on the surrogate; /metrics renders an idle
	// scheduler with one registered worker.
	echo := func(_ context.Context, p []byte) ([]byte, error) { return p, nil }
	fleet, err := cluster.NewLocalCluster(1, echo, 0)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { fleet.Close() })
	_, srv := newTestServer(t, func(cfg *service.Config) { cfg.Scheduler = fleet.Scheduler })
	base := srv.URL

	// Malformed bodies are 400s, a spec with the deleted per-campaign
	// evaluation timeout included: the worker's cap is the only one.
	for _, body := range []string{"not json", `{"tenant":"x","bogus_field":1}`, `{"tenant":""}`, `{"tenant":"x","eval_timeout_ms":100}`} {
		resp, err := http.Post(base+"/v1/campaigns", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("body %q: status %d, want 400", body, resp.StatusCode)
		}
	}

	st := postCampaign(t, base, `{"tenant":"alice","name":"demo","runs":1,"pop_size":6,"generations":2,"base_seed":7}`)
	if st.State != service.StateQueued && st.State != service.StateRunning && st.State != service.StateDone {
		t.Fatalf("fresh campaign in state %s", st.State)
	}
	done := waitStatusHTTP(t, base, st.ID, service.StateDone)
	if done.Evaluations != 18 || done.GensDone != 2 {
		t.Fatalf("final status %+v", done)
	}

	// List, filtered and not.
	var all, mine, none []service.Status
	getJSON(t, base+"/v1/campaigns", &all)
	getJSON(t, base+"/v1/campaigns?tenant=alice", &mine)
	getJSON(t, base+"/v1/campaigns?tenant=stranger", &none)
	if len(all) != 1 || len(mine) != 1 || len(none) != 0 {
		t.Fatalf("list lengths: all=%d mine=%d none=%d", len(all), len(mine), len(none))
	}

	// Long-poll events: everything already buffered arrives immediately.
	var feed struct {
		Events []service.Event `json:"events"`
		Next   uint64          `json:"next"`
	}
	getJSON(t, base+"/v1/campaigns/"+st.ID+"/events?after=0", &feed)
	if len(feed.Events) == 0 || feed.Events[len(feed.Events)-1].Type != "done" {
		t.Fatalf("event feed: %+v", feed)
	}
	if feed.Next != feed.Events[len(feed.Events)-1].Seq {
		t.Fatalf("next cursor %d != last seq", feed.Next)
	}
	// Polling past the end with a wait bound returns empty, not a hang.
	var empty struct {
		Events []service.Event `json:"events"`
	}
	getJSON(t, fmt.Sprintf("%s/v1/campaigns/%s/events?after=%d&wait_ms=50", base, st.ID, feed.Next), &empty)
	if len(empty.Events) != 0 {
		t.Fatalf("expected empty poll, got %+v", empty.Events)
	}

	// Frontier document: canonical, non-empty, genome+fitness only.
	var frontier struct {
		Size   int `json:"size"`
		Points []struct {
			Genome  hpo.JSONFloats `json:"genome"`
			Fitness hpo.JSONFloats `json:"fitness"`
		} `json:"points"`
	}
	getJSON(t, base+"/v1/campaigns/"+st.ID+"/frontier", &frontier)
	if frontier.Size == 0 || len(frontier.Points) != frontier.Size {
		t.Fatalf("frontier: %+v", frontier)
	}

	// Lcurve rounds.
	var lc []struct {
		Gen   int `json:"gen"`
		Evals int `json:"evals"`
	}
	getJSON(t, base+"/v1/campaigns/"+st.ID+"/lcurve", &lc)
	if len(lc) != 3 || lc[0].Evals != 6 {
		t.Fatalf("lcurve: %+v", lc)
	}

	// The result endpoint serves a loadable hpo campaign log.
	resp, err := http.Get(base + "/v1/campaigns/" + st.ID + "/result")
	if err != nil {
		t.Fatal(err)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("result Content-Type %q, want application/x-ndjson", ct)
	}
	doc, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	res, err := hpo.LoadCampaign(bytes.NewReader(doc))
	if err != nil {
		t.Fatalf("result not loadable: %v", err)
	}
	if res.TotalEvaluations() != 18 {
		t.Fatalf("loaded result has %d evaluations", res.TotalEvaluations())
	}

	// Unknown IDs are 404s on every campaign route.
	for _, path := range []string{"", "/events", "/frontier", "/lcurve", "/result"} {
		resp := getJSON(t, base+"/v1/campaigns/nope"+path, nil)
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("GET nope%s: status %d, want 404", path, resp.StatusCode)
		}
	}

	// Health and metrics.
	var health struct {
		Status string `json:"status"`
	}
	if resp := getJSON(t, base+"/healthz", &health); resp.StatusCode != http.StatusOK || health.Status != "ok" {
		t.Fatalf("healthz: %d %+v", resp.StatusCode, health)
	}
	mresp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	metrics, err := io.ReadAll(mresp.Body)
	mresp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		`repro_service_campaigns{state="done"} 1`,
		"repro_service_evaluations_total",
		"repro_service_memo_misses_total",
		"repro_cluster_tasks_submitted_total 0\n",
		"repro_cluster_workers 1\n",
		`repro_cluster_worker_inflight{worker="worker-0"} 0`,
		"repro_cluster_wire_frames_in_total 1\n", // the register
		"repro_cluster_wire_conns_total 1\n",
		"repro_cluster_queue_waits_total 0\n",
		"repro_cluster_queue_depth 0\n",
		`repro_cluster_events_total{type="worker_connect"} 1`,
		`repro_cluster_events_total{type="assign"} 0`,
		`repro_cluster_events_total{type="worker_disconnect"} 0`,
	} {
		if !strings.Contains(string(metrics), want) {
			t.Errorf("metrics missing %q:\n%s", want, metrics)
		}
	}
	if strings.Contains(string(metrics), "repro_cluster_queue_depth{") {
		t.Errorf("queue depth is one unlabelled gauge, got labelled lines:\n%s", metrics)
	}

	// pprof is mounted.
	presp, err := http.Get(base + "/debug/pprof/cmdline")
	if err != nil {
		t.Fatal(err)
	}
	presp.Body.Close()
	if presp.StatusCode != http.StatusOK {
		t.Errorf("pprof: status %d", presp.StatusCode)
	}
}

func TestHTTPQuotaAndCancel(t *testing.T) {
	be := &blockingEvaluator{release: make(chan struct{})}
	_, srv := newTestServer(t, func(cfg *service.Config) {
		cfg.Evaluator = be
		cfg.MaxCampaignsPerTenant = 1
		cfg.MaxConcurrent = 1
	})
	base := srv.URL

	st := postCampaign(t, base, `{"tenant":"alice","runs":1,"pop_size":1,"generations":0,"base_seed":1}`)
	resp, err := http.Post(base+"/v1/campaigns", "application/json",
		strings.NewReader(`{"tenant":"alice","runs":1,"pop_size":1,"generations":0,"base_seed":2}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-quota create: status %d, want 429", resp.StatusCode)
	}

	req, err := http.NewRequest(http.MethodDelete, base+"/v1/campaigns/"+st.ID, nil)
	if err != nil {
		t.Fatal(err)
	}
	dresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	dresp.Body.Close()
	if dresp.StatusCode != http.StatusOK {
		t.Fatalf("cancel: status %d", dresp.StatusCode)
	}
	waitStatusHTTP(t, base, st.ID, service.StateCancelled)
	close(be.release)
}

// eventBatch is one long-poll answer of the events route.
type eventBatch struct {
	Events []service.Event `json:"events"`
	Next   uint64          `json:"next"`
}

// poll asks the events route once and requires a 200 whose next cursor
// is the batch's last seq, or after itself for an empty batch.
func poll(t *testing.T, base, id string, after uint64, waitMS int) eventBatch {
	t.Helper()
	var b eventBatch
	resp := getJSON(t, fmt.Sprintf("%s/v1/campaigns/%s/events?after=%d&wait_ms=%d", base, id, after, waitMS), &b)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("poll after %d: status %d", after, resp.StatusCode)
	}
	want := after
	if len(b.Events) > 0 {
		want = b.Events[len(b.Events)-1].Seq
	}
	if b.Next != want {
		t.Fatalf("poll after %d: next %d, want %d (%+v)", after, b.Next, want, b.Events)
	}
	return b
}

// TestHTTPLongPollFeed follows a campaign's event feed by long-poll, as
// bench's follow does: a waiting poll sleeps while nothing happens and
// returns when the next event lands, the feed is every event once in
// ascending seq order from created to done, and ?after=<mid> replays
// only the events past mid.
func TestHTTPLongPollFeed(t *testing.T) {
	be := &blockingEvaluator{release: make(chan struct{})}
	svc, srv := newTestServer(t, func(cfg *service.Config) { cfg.Evaluator = be })
	base := srv.URL
	st := postCampaign(t, base, `{"tenant":"alice","runs":1,"pop_size":5,"generations":2,"base_seed":3}`)

	// Admitted and held at its first evaluations: nothing more can land.
	c, ok := svc.Campaign(st.ID)
	if !ok {
		t.Fatalf("campaign %s not registered", st.ID)
	}
	waitState(t, c, service.StateRunning)
	for i := 0; atomic.LoadInt64(&be.calls) == 0; i++ {
		if i == 4000 {
			t.Fatal("no evaluation started")
		}
		time.Sleep(time.Millisecond)
	}
	feed := poll(t, base, st.ID, 0, 60_000).Events
	cursor := feed[len(feed)-1].Seq
	woke := make(chan eventBatch, 1)
	go func() {
		var b eventBatch
		resp, err := http.Get(fmt.Sprintf("%s/v1/campaigns/%s/events?after=%d&wait_ms=60000", base, st.ID, cursor))
		if err == nil {
			err = json.NewDecoder(resp.Body).Decode(&b)
			resp.Body.Close()
		}
		if err != nil {
			t.Errorf("waiting poll: %v", err)
		}
		woke <- b
	}()
	select {
	case b := <-woke:
		t.Fatalf("a poll past the last event returned while nothing happened: %+v", b)
	case <-time.After(50 * time.Millisecond):
	}
	close(be.release)
	select {
	case b := <-woke:
		if len(b.Events) == 0 || b.Events[0].Seq != cursor+1 {
			t.Fatalf("waiting poll after %d woke with %+v", cursor, b)
		}
		feed = append(feed, b.Events...)
	case <-time.After(30 * time.Second):
		t.Fatal("the waiting poll never returned after the campaign moved on")
	}

	// Follow to the end, one poll per batch, with the next cursor.
	for feed[len(feed)-1].Type != "done" {
		feed = append(feed, poll(t, base, st.ID, feed[len(feed)-1].Seq, 60_000).Events...)
	}
	if feed[0].Type != "created" {
		t.Fatalf("feed starts with %q, want created", feed[0].Type)
	}
	gens := 0
	for i, e := range feed {
		if e.Seq != uint64(i+1) || e.Campaign != st.ID {
			t.Fatalf("event %d: %+v, want seq %d of campaign %s", i, e, i+1, st.ID)
		}
		if e.Type == "generation" {
			gens++
			if e.Evals == 0 {
				t.Errorf("generation event without eval count: %+v", e)
			}
		}
	}
	if gens != 3 {
		t.Fatalf("saw %d generation events, want 3 (rounds 0..2)", gens)
	}

	// Re-polling from the middle replays exactly the tail, at once.
	mid := feed[2].Seq
	tail := poll(t, base, st.ID, mid, 60_000).Events
	if len(tail) != len(feed)-3 {
		t.Fatalf("after %d: %d events, want %d", mid, len(tail), len(feed)-3)
	}
	for i, e := range tail {
		if e != feed[3+i] {
			t.Fatalf("after %d, event %d: %+v, want %+v", mid, i, e, feed[3+i])
		}
	}
}

// TestHTTPEventsQuery holds the events route's parameters to
// non-negative integers: anything else is a 400 with the JSON error
// envelope, not a silent replay from 0 or a poll that does not wait.
func TestHTTPEventsQuery(t *testing.T) {
	_, srv := newTestServer(t, nil)
	base := srv.URL
	st := postCampaign(t, base, `{"tenant":"alice","runs":1,"pop_size":4,"generations":1,"base_seed":3}`)
	waitStatusHTTP(t, base, st.ID, service.StateDone)
	all := poll(t, base, st.ID, 0, 0)

	for _, tc := range []struct {
		query string
		code  int
		bad   string // the parameter a 400 names
		n     int    // events a 200 returns
	}{
		{"", http.StatusOK, "", len(all.Events)},
		{"?after=0", http.StatusOK, "", len(all.Events)},
		{"?wait_ms=60000&after=0", http.StatusOK, "", len(all.Events)}, // bench's form, events ready
		{"?after=2&wait_ms=0", http.StatusOK, "", len(all.Events) - 2},
		{fmt.Sprintf("?after=%d&wait_ms=10", all.Next), http.StatusOK, "", 0},
		{"?after=abc", http.StatusBadRequest, "after", 0},
		{"?after=-1", http.StatusBadRequest, "after", 0},
		{"?after=1.5", http.StatusBadRequest, "after", 0},
		{"?after=", http.StatusBadRequest, "after", 0},
		{"?after=18446744073709551616", http.StatusBadRequest, "after", 0},
		{"?wait_ms=abc", http.StatusBadRequest, "wait_ms", 0},
		{"?wait_ms=-5&after=0", http.StatusBadRequest, "wait_ms", 0},
		{"?after=0&wait_ms=+5", http.StatusBadRequest, "wait_ms", 0},
	} {
		var body struct {
			Events []service.Event `json:"events"`
			Error  string          `json:"error"`
		}
		resp := getJSON(t, base+"/v1/campaigns/"+st.ID+"/events"+tc.query, &body)
		switch {
		case resp.StatusCode != tc.code:
			t.Errorf("%q: status %d, want %d", tc.query, resp.StatusCode, tc.code)
		case tc.code == http.StatusOK && len(body.Events) != tc.n:
			t.Errorf("%q: %d events, want %d", tc.query, len(body.Events), tc.n)
		case tc.code != http.StatusOK && !strings.Contains(body.Error, tc.bad+" must be a non-negative integer"):
			t.Errorf("%q: error %q does not name %s", tc.query, body.Error, tc.bad)
		}
	}
}

// TestSchedulerLifecycleMetrics drives a real scheduler through each
// lifecycle occurrence — a delivered result, a task whose lease expires
// twice into an abandon, each expiry dropping its worker, both workers
// re-registering once their late results die with those connections, a
// worker that leaves — and holds /metrics to the scheduler's own
// counters: each repro_cluster_events_total line is the Stats field it
// labels, and registrations − disconnects is the connected fleet.
func TestSchedulerLifecycleMetrics(t *testing.T) {
	release := make(chan struct{})
	handler := func(_ context.Context, p []byte) ([]byte, error) {
		if string(p) == "slow" {
			<-release // ignores its context, like a hung training
		}
		return p, nil
	}
	lc, err := cluster.NewLocalCluster(2, handler, 0)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { lc.Close() })
	sched := lc.Scheduler
	sched.TaskTimeout, sched.MaxAttempts = 250*time.Millisecond, 2
	if _, err := sched.Submit(context.Background(), []byte("fast")); err != nil {
		t.Fatal(err)
	}
	if _, err := sched.Submit(context.Background(), []byte("slow")); err == nil || !strings.Contains(err.Error(), "abandoned") {
		t.Fatalf("slow task: %v, want it abandoned after two lease expiries", err)
	}
	waitFor := func(what string, cond func(cluster.Stats) bool) {
		t.Helper()
		for i := 0; i < 5000 && !cond(sched.Stats()); i++ {
			time.Sleep(time.Millisecond)
		}
		if st := sched.Stats(); !cond(st) {
			t.Fatalf("timed out waiting for %s: %+v", what, st)
		}
	}
	svc := newTestService(t, func(cfg *service.Config) { cfg.Scheduler = sched })
	// checkEvents holds each events line of /metrics to the Stats field
	// it labels.
	checkEvents := func() cluster.Stats {
		t.Helper()
		st, rec := sched.Stats(), httptest.NewRecorder()
		svc.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
		for typ, n := range map[string]int64{"assign": st.Assigned, "lease_expired": st.Expired,
			"requeue": st.Reassigned, "result": st.Delivered, "stale_result": st.Stale,
			"task_abandoned": st.Abandoned, "worker_connect": st.Registered, "worker_disconnect": st.Disconnected} {
			if want := fmt.Sprintf("repro_cluster_events_total{type=%q} %d\n", typ, n); !strings.Contains(rec.Body.String(), want) {
				t.Errorf("metrics missing %q:\n%s", want, rec.Body)
			}
		}
		return st
	}

	// Each expiry dropped the worker that held the task, and both
	// handlers are still held back, so neither has re-registered yet.
	waitFor("the abandon and both drops", func(st cluster.Stats) bool { return st.Abandoned == 1 && st.Disconnected == 2 })
	if st := checkEvents(); st.Expired != 2 || st.Reassigned != 1 || st.Stale != 0 || st.Delivered != 1 || st.Assigned != 3 || st.Registered != 2 || st.Workers != 0 {
		t.Errorf("stats %+v, want 2 expiries, 1 requeue, 1 abandon, 1 delivered result, 3 assignments, 2 registrations, both dropped", st)
	}
	close(release)
	waitFor("both workers to re-register", func(st cluster.Stats) bool { return st.Registered == 4 })
	if err := lc.Workers[0].Close(); err != nil {
		t.Fatal(err)
	}
	waitFor("the disconnect", func(st cluster.Stats) bool { return st.Disconnected == 3 })
	if st := checkEvents(); st.Registered-st.Disconnected != st.Workers || st.Workers != 1 || st.Stale != 0 || len(sched.WorkerStats()) != 1 {
		t.Errorf("stats %+v with %d workers listed: registrations − disconnects is not the fleet, or a late result was read", st, len(sched.WorkerStats()))
	}
}
