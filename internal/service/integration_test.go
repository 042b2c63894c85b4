package service_test

import (
	"bytes"
	"context"
	"flag"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/ea"
	"repro/internal/service"
	"repro/internal/surrogate"
)

// getBytes fetches a URL's body verbatim.
func getBytes(t *testing.T, url string) []byte {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d", url, resp.StatusCode)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return body
}

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/golden fixtures from the current implementation")

// goldenDocs names the served documents the bounce test pins, in the
// order servedDocs fetches them.
var goldenDocs = []string{"alice_frontier.json", "alice_lcurve.json", "bob_frontier.json", "bob_lcurve.json"}

// servedDocs fetches the /frontier and /lcurve documents of the two
// tenants' campaigns, in goldenDocs order.
func servedDocs(t *testing.T, base, alice, bob string) [][]byte {
	t.Helper()
	var docs [][]byte
	for _, id := range []string{alice, bob} {
		for _, doc := range []string{"frontier", "lcurve"} {
			docs = append(docs, getBytes(t, base+"/v1/campaigns/"+id+"/"+doc))
		}
	}
	return docs
}

// checkGolden compares got with testdata/golden/<name> byte for byte, or
// rewrites the fixture under -update-golden.
func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", "golden", name)
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden fixture %s (run `go test ./internal/service -run BounceResume -update-golden`): %v", path, err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s drifted from the golden fixture:\ngot:  %s\nwant: %s", name, got, want)
	}
}

// waitGensDone polls until the campaign has completed at least n
// offspring generations.
func waitGensDone(t *testing.T, base, id string, n int) {
	t.Helper()
	for i := 0; i < 4000; i++ {
		var st service.Status
		getJSON(t, base+"/v1/campaigns/"+id, &st)
		if st.GensDone >= n {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("campaign %s never completed %d generations", id, n)
}

// soleCampaign returns the tenant's only campaign on the given service.
func soleCampaign(t *testing.T, svc *service.Service, tenant string) *service.Campaign {
	t.Helper()
	cs := svc.Campaigns(tenant)
	if len(cs) != 1 {
		t.Fatalf("tenant %s has %d campaigns, want 1", tenant, len(cs))
	}
	return cs[0]
}

// TestServiceBounceResumeByteIdenticalFrontier is the end-to-end
// checkpoint/resume contract: two tenants run campaigns against one
// LocalCluster fleet; the service is bounced mid-campaign (drain — the
// SIGTERM path in cmd/serve — then a fresh service restoring from the
// same checkpoint directory, while the worker fleet keeps running); and
// the resumed campaigns must finish with frontier and lcurve documents
// byte-identical to an uninterrupted service's, with zero completed
// generations lost at the bounce.  The uninterrupted documents must
// equal the committed fixtures under testdata/golden, so a change that
// moves both runs alike fails here too.
func TestServiceBounceResumeByteIdenticalFrontier(t *testing.T) {
	// One shared fleet for all three service instances, evaluating with
	// the deterministic surrogate slowed enough that the drain reliably
	// lands mid-campaign.
	sur := surrogate.NewEvaluator(surrogate.Config{Seed: 2023})
	slow := ea.EvaluatorFunc(func(ctx context.Context, g ea.Genome) (ea.Fitness, error) {
		time.Sleep(8 * time.Millisecond)
		return sur.Evaluate(ctx, g)
	})
	lc, err := cluster.NewLocalCluster(3, cluster.EvalHandler(slow), time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := lc.Close(); err != nil {
			t.Logf("fleet close: %v", err)
		}
	}()

	specAlice := `{"tenant":"alice","name":"al","runs":1,"pop_size":6,"generations":5,"base_seed":11,"parallelism":3}`
	specBob := `{"tenant":"bob","name":"bo","runs":1,"pop_size":5,"generations":5,"base_seed":99,"parallelism":3}`

	newSvc := func(dir string) (*service.Service, *httptest.Server) {
		svc, err := service.New(service.Config{
			Evaluator:     &cluster.Evaluator{Client: lc.Client},
			CheckpointDir: dir,
			MaxConcurrent: 2,
		})
		if err != nil {
			t.Fatal(err)
		}
		srv := httptest.NewServer(svc.Handler())
		t.Cleanup(srv.Close)
		return svc, srv
	}

	// Reference: an uninterrupted service runs both campaigns to done.
	_, refSrv := newSvc("")
	refAlice := postCampaign(t, refSrv.URL, specAlice)
	refBob := postCampaign(t, refSrv.URL, specBob)
	waitStatusHTTP(t, refSrv.URL, refAlice.ID, service.StateDone)
	waitStatusHTTP(t, refSrv.URL, refBob.ID, service.StateDone)
	ref := servedDocs(t, refSrv.URL, refAlice.ID, refBob.ID)
	for i, name := range goldenDocs {
		checkGolden(t, name, ref[i])
	}

	// Bounced: same specs into a checkpointing service, drained once both
	// campaigns are mid-flight with at least one completed generation.
	dir := t.TempDir()
	svc1, srv1 := newSvc(dir)
	bAlice := postCampaign(t, srv1.URL, specAlice)
	bBob := postCampaign(t, srv1.URL, specBob)
	waitGensDone(t, srv1.URL, bAlice.ID, 1)
	waitGensDone(t, srv1.URL, bBob.ID, 1)

	drainCtx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := svc1.Drain(drainCtx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	stAlice := soleCampaign(t, svc1, "alice").Status()
	stBob := soleCampaign(t, svc1, "bob").Status()
	if stAlice.State != service.StateSuspended {
		t.Fatalf("alice is %s after drain, want suspended mid-campaign (gens_done=%d)",
			stAlice.State, stAlice.GensDone)
	}
	if stBob.State != service.StateSuspended {
		t.Fatalf("bob is %s after drain, want suspended mid-campaign (gens_done=%d)",
			stBob.State, stBob.GensDone)
	}
	if stAlice.GensDone < 1 || stAlice.GensDone >= 5 {
		t.Fatalf("alice suspended at %d generations; the bounce must land mid-campaign", stAlice.GensDone)
	}

	// Restart: a fresh service restores from the checkpoint directory and
	// finishes both campaigns on the still-running fleet.
	svc2, srv2 := newSvc(dir)
	restored, err := svc2.Restore()
	if err != nil {
		t.Fatal(err)
	}
	if restored != 2 {
		t.Fatalf("restored %d campaigns, want 2", restored)
	}
	rAlice := soleCampaign(t, svc2, "alice")
	rBob := soleCampaign(t, svc2, "bob")
	// Zero lost completed generations: the restored campaigns start from
	// exactly where the drain checkpointed them.
	if got := rAlice.Status().GensDone; got != stAlice.GensDone {
		t.Fatalf("alice restored at %d generations, checkpointed at %d", got, stAlice.GensDone)
	}
	if got := rBob.Status().GensDone; got != stBob.GensDone {
		t.Fatalf("bob restored at %d generations, checkpointed at %d", got, stBob.GensDone)
	}
	waitStatusHTTP(t, srv2.URL, rAlice.ID, service.StateDone)
	waitStatusHTTP(t, srv2.URL, rBob.ID, service.StateDone)

	// The resume contract itself: byte-identical frontier and lcurve
	// documents, as if the bounce never happened — so the resumed ones
	// equal the committed fixtures too.
	got := servedDocs(t, srv2.URL, rAlice.ID, rBob.ID)
	for i, name := range goldenDocs {
		if !bytes.Equal(got[i], ref[i]) {
			t.Errorf("%s diverged after bounce:\nuninterrupted: %s\nresumed:       %s", name, ref[i], got[i])
		}
	}
}

// TestRestoreRegistersTerminalCampaigns checks that done campaigns stay
// queryable (frontier and all) across a bounce without being re-run.
func TestRestoreRegistersTerminalCampaigns(t *testing.T) {
	dir := t.TempDir()
	mk := func() (*service.Service, *httptest.Server) {
		svc, err := service.New(service.Config{
			Evaluator:     surrogate.NewEvaluator(surrogate.Config{Seed: 2023}),
			CheckpointDir: dir,
		})
		if err != nil {
			t.Fatal(err)
		}
		srv := httptest.NewServer(svc.Handler())
		t.Cleanup(srv.Close)
		return svc, srv
	}
	_, srv1 := mk()
	st := postCampaign(t, srv1.URL, `{"tenant":"alice","runs":1,"pop_size":5,"generations":1,"base_seed":5}`)
	waitStatusHTTP(t, srv1.URL, st.ID, service.StateDone)
	frontier := getBytes(t, srv1.URL+"/v1/campaigns/"+st.ID+"/frontier")
	evals := getJSONStatus(t, srv1.URL, st.ID).Evaluations

	svc2, srv2 := mk()
	restored, err := svc2.Restore()
	if err != nil {
		t.Fatal(err)
	}
	if restored != 0 {
		t.Fatalf("restored %d campaigns, want 0 (done is terminal)", restored)
	}
	got := getJSONStatus(t, srv2.URL, st.ID)
	if got.State != service.StateDone || got.Evaluations != evals {
		t.Fatalf("terminal campaign mangled by restore: %+v", got)
	}
	if f := getBytes(t, srv2.URL+"/v1/campaigns/"+st.ID+"/frontier"); string(f) != string(frontier) {
		t.Fatal("terminal campaign's frontier changed across restore")
	}
}

func getJSONStatus(t *testing.T, base, id string) service.Status {
	t.Helper()
	var st service.Status
	getJSON(t, base+"/v1/campaigns/"+id, &st)
	return st
}
