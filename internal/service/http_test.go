package service_test

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
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
	_, srv := newTestServer(t, func(cfg *service.Config) {
		cfg.SchedulerWire = func() cluster.WireStats {
			return cluster.WireStats{FramesIn: 7, FramesOut: 9, BytesIn: 512, BytesOut: 1024, Conns: 3}
		}
		cfg.SchedulerStats = func() (cluster.Stats, []cluster.WorkerStats) {
			return cluster.Stats{Submitted: 12, QueueWaits: 1, Pending: 5}, nil
		}
	})
	base := srv.URL

	// Malformed bodies are 400s.
	for _, body := range []string{"not json", `{"tenant":"x","bogus_field":1}`, `{"tenant":""}`} {
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

	// The result endpoint streams a loadable hpo campaign document.
	resp, err := http.Get(base + "/v1/campaigns/" + st.ID + "/result")
	if err != nil {
		t.Fatal(err)
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
		"repro_cluster_wire_frames_in_total 7",
		"repro_cluster_wire_conns_total 3\n",
		"repro_cluster_queue_waits_total 1\n",
		"repro_cluster_queue_depth 5\n",
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

// TestHTTPSSEStream drives the Server-Sent-Events feed end to end: the
// replayed backlog, live generation events, ordered IDs, and stream
// termination once the campaign is done.
func TestHTTPSSEStream(t *testing.T) {
	_, srv := newTestServer(t, nil)
	base := srv.URL

	st := postCampaign(t, base, `{"tenant":"alice","runs":1,"pop_size":5,"generations":2,"base_seed":3}`)

	req, err := http.NewRequest(http.MethodGet, base+"/v1/campaigns/"+st.ID+"/events", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Accept", "text/event-stream")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("content type %q", ct)
	}

	type frame struct {
		id    uint64
		event string
		data  service.Event
	}
	var frames []frame
	var cur frame
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "id: "):
			fmt.Sscanf(line, "id: %d", &cur.id)
		case strings.HasPrefix(line, "event: "):
			cur.event = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &cur.data); err != nil {
				t.Fatalf("bad SSE data %q: %v", line, err)
			}
		case line == "":
			frames = append(frames, cur)
			cur = frame{}
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatalf("stream read: %v", err)
	}
	if len(frames) < 4 {
		t.Fatalf("only %d frames", len(frames))
	}
	if frames[0].event != "created" || frames[len(frames)-1].event != "done" {
		t.Fatalf("frame types: first=%s last=%s", frames[0].event, frames[len(frames)-1].event)
	}
	gens := 0
	for i, f := range frames {
		if f.id != f.data.Seq || (i > 0 && f.id <= frames[i-1].id) {
			t.Fatalf("frame %d: id %d, data seq %d, prev %d", i, f.id, f.data.Seq, frames[max(i-1, 0)].id)
		}
		if f.event == "generation" {
			gens++
			if f.data.Evals == 0 {
				t.Errorf("generation frame without eval count: %+v", f.data)
			}
		}
	}
	if gens != 3 {
		t.Fatalf("saw %d generation frames, want 3 (rounds 0..2)", gens)
	}

	// Reconnect with ?after=<mid-stream id>: only the tail replays.
	mid := frames[2].id
	req2, err := http.NewRequest(http.MethodGet, fmt.Sprintf("%s/v1/campaigns/%s/events?after=%d", base, st.ID, mid), nil)
	if err != nil {
		t.Fatal(err)
	}
	req2.Header.Set("Accept", "text/event-stream")
	resp2, err := http.DefaultClient.Do(req2)
	if err != nil {
		t.Fatal(err)
	}
	tail, err := io.ReadAll(resp2.Body)
	resp2.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if want := fmt.Sprintf("id: %d\n", mid+1); !strings.HasPrefix(string(tail), want) {
		t.Fatalf("resumed stream starts %q, want prefix %q", tail[:min(len(tail), 20)], want)
	}
	if strings.Contains(string(tail), fmt.Sprintf("id: %d\n", mid)) {
		t.Fatal("resumed stream replayed already-delivered events")
	}
}
