package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"net/http/pprof"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/hpo"
)

// Handler returns the service's HTTP API:
//
//	POST   /v1/campaigns                create a campaign (body: Spec)
//	GET    /v1/campaigns[?tenant=t]     list campaign statuses
//	GET    /v1/campaigns/{id}           one campaign's status
//	DELETE /v1/campaigns/{id}           cancel (queued or running)
//	GET    /v1/campaigns/{id}/events    SSE stream (Accept: text/event-stream)
//	                                    or JSON long-poll (?after=N&wait_ms=M)
//	GET    /v1/campaigns/{id}/frontier  Pareto frontier, canonical bytes
//	GET    /v1/campaigns/{id}/lcurve    per-generation evaluation history
//	GET    /v1/campaigns/{id}/result    full hpo campaign document
//	GET    /healthz                     liveness
//	GET    /metrics                     Prometheus text format
//	GET    /debug/pprof/...             runtime profiling
func (s *Service) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/campaigns", s.handleCreate)
	mux.HandleFunc("GET /v1/campaigns", s.handleList)
	mux.HandleFunc("GET /v1/campaigns/{id}", s.handleStatus)
	mux.HandleFunc("DELETE /v1/campaigns/{id}", s.handleCancel)
	mux.HandleFunc("GET /v1/campaigns/{id}/events", s.handleEvents)
	mux.HandleFunc("GET /v1/campaigns/{id}/frontier", s.handleFrontier)
	mux.HandleFunc("GET /v1/campaigns/{id}/lcurve", s.handleLcurve)
	mux.HandleFunc("GET /v1/campaigns/{id}/result", s.handleResult)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /debug/pprof/", pprof.Index)
	mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
	return mux
}

// apiError is the JSON error envelope.
type apiError struct {
	Error string `json:"error"`
}

func (s *Service) writeJSON(w http.ResponseWriter, status int, v interface{}) {
	data, err := json.Marshal(v)
	if err != nil {
		http.Error(w, `{"error":"response encoding failed"}`, http.StatusInternalServerError)
		s.logf("response_encode_error", "err", err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	if _, err := w.Write(append(data, '\n')); err != nil {
		s.logf("response_write_error", "err", err)
	}
}

func (s *Service) writeError(w http.ResponseWriter, err error) {
	status := http.StatusInternalServerError
	var quota quotaError
	switch {
	case errors.Is(err, errUnknownCampaign):
		status = http.StatusNotFound
	case errors.Is(err, errDraining):
		status = http.StatusServiceUnavailable
	case errors.Is(err, errCheckpoint):
		status = http.StatusInternalServerError
	case errors.As(err, &quota):
		status = http.StatusTooManyRequests
	case strings.Contains(err.Error(), "already"):
		status = http.StatusConflict
	case strings.HasPrefix(err.Error(), "service:"):
		status = http.StatusBadRequest
	}
	s.writeJSON(w, status, apiError{Error: err.Error()})
}

func (s *Service) handleCreate(w http.ResponseWriter, r *http.Request) {
	var spec Spec
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		s.writeJSON(w, http.StatusBadRequest, apiError{Error: "decoding spec: " + err.Error()})
		return
	}
	c, err := s.Create(spec)
	if err != nil {
		s.writeError(w, err)
		return
	}
	s.writeJSON(w, http.StatusCreated, c.Status())
}

func (s *Service) handleList(w http.ResponseWriter, r *http.Request) {
	statuses := []Status{}
	for _, c := range s.Campaigns(r.URL.Query().Get("tenant")) {
		statuses = append(statuses, c.Status())
	}
	s.writeJSON(w, http.StatusOK, statuses)
}

// lookup resolves {id} or writes a 404.
func (s *Service) lookup(w http.ResponseWriter, r *http.Request) (*Campaign, bool) {
	c, ok := s.Campaign(r.PathValue("id"))
	if !ok {
		s.writeError(w, errUnknownCampaign)
	}
	return c, ok
}

func (s *Service) handleStatus(w http.ResponseWriter, r *http.Request) {
	if c, ok := s.lookup(w, r); ok {
		s.writeJSON(w, http.StatusOK, c.Status())
	}
}

func (s *Service) handleCancel(w http.ResponseWriter, r *http.Request) {
	c, ok := s.lookup(w, r)
	if !ok {
		return
	}
	if err := s.Cancel(c.ID); err != nil {
		s.writeError(w, err)
		return
	}
	s.writeJSON(w, http.StatusOK, c.Status())
}

// handleEvents serves the campaign event feed.  With Accept:
// text/event-stream it streams SSE frames (id = sequence number, so a
// dropped client reconnects with ?after=<last id>); otherwise it is a
// JSON long-poll: ?after=N returns buffered events past N, blocking up
// to ?wait_ms=M (max 60s) when none are ready.
func (s *Service) handleEvents(w http.ResponseWriter, r *http.Request) {
	c, ok := s.lookup(w, r)
	if !ok {
		return
	}
	q := r.URL.Query()
	after, _ := strconv.ParseUint(q.Get("after"), 10, 64)
	if strings.Contains(r.Header.Get("Accept"), "text/event-stream") {
		s.streamSSE(w, r, c, after)
		return
	}
	waitMS, _ := strconv.ParseInt(q.Get("wait_ms"), 10, 64)
	if waitMS > 60_000 {
		waitMS = 60_000
	}
	evs := c.ring.Since(after)
	if len(evs) == 0 && waitMS > 0 {
		ctx, cancel := context.WithTimeout(r.Context(), time.Duration(waitMS)*time.Millisecond)
		evs, _ = c.ring.Next(ctx, after) // timeout → empty batch, next=after
		cancel()
	}
	next := after
	if len(evs) > 0 {
		next = evs[len(evs)-1].Seq
	}
	if evs == nil {
		evs = []Event{}
	}
	s.writeJSON(w, http.StatusOK, struct {
		Events []Event `json:"events"`
		Next   uint64  `json:"next"`
	}{evs, next})
}

// streamSSE replays buffered events past `after`, then follows the ring
// live until the campaign reaches a state that ends the feed (terminal,
// or suspended — this process is draining) and every event has been
// delivered.
func (s *Service) streamSSE(w http.ResponseWriter, r *http.Request, c *Campaign, after uint64) {
	fl, ok := w.(http.Flusher)
	if !ok {
		s.writeJSON(w, http.StatusInternalServerError, apiError{Error: "streaming unsupported by connection"})
		return
	}
	h := w.Header()
	h.Set("Content-Type", "text/event-stream")
	h.Set("Cache-Control", "no-cache")
	h.Set("Connection", "keep-alive")
	w.WriteHeader(http.StatusOK)
	fl.Flush()

	for {
		// Capture the wake channel BEFORE draining, so an event landing
		// between Since and the select still wakes the loop (Ring.WaitCh).
		wake := c.ring.WaitCh()
		evs := c.ring.Since(after)
		for _, e := range evs {
			data, err := json.Marshal(e)
			if err != nil {
				s.logf("sse_encode_error", "err", err)
				return
			}
			if _, err := fmt.Fprintf(w, "id: %d\nevent: %s\ndata: %s\n\n", e.Seq, e.Type, data); err != nil {
				return // client went away
			}
			after = e.Seq
		}
		if len(evs) > 0 {
			fl.Flush()
		}
		st := c.State()
		if (st.Terminal() || st == StateSuspended) && len(c.ring.Since(after)) == 0 {
			return
		}
		select {
		case <-r.Context().Done():
			return
		case <-wake:
		}
	}
}

// frontierPoint is one Pareto-frontier member.  hpo.JSONFloats carries
// non-finite fitness (a frontier can legitimately hold +Inf objectives
// when every evaluation failed).
type frontierPoint struct {
	Genome  hpo.JSONFloats `json:"genome"`
	Fitness hpo.JSONFloats `json:"fitness"`
}

// orderKey maps a float64 onto the IEEE-754 total order as a uint64, so
// frontier sorting is deterministic even across NaN/±Inf.
func orderKey(v float64) uint64 {
	b := math.Float64bits(v)
	if b&(1<<63) != 0 {
		return ^b
	}
	return b | (1 << 63)
}

func lessFloats(a, b []float64) bool {
	for i := 0; i < len(a) && i < len(b); i++ {
		ka, kb := orderKey(a[i]), orderKey(b[i])
		if ka != kb {
			return ka < kb
		}
	}
	return len(a) < len(b)
}

// handleFrontier serves the campaign's Pareto frontier as of gens_done in
// a canonical form: points sorted by (fitness, genome) under IEEE total
// order, no identifiers, no timestamps.  Two campaigns that took the
// same decisions produce byte-identical frontier documents — the
// property the bounce/resume integration test asserts.
func (s *Service) handleFrontier(w http.ResponseWriter, r *http.Request) {
	c, ok := s.lookup(w, r)
	if !ok {
		return
	}
	points := []frontierPoint{}
	for _, ind := range c.Frontier() {
		points = append(points, frontierPoint{
			Genome:  hpo.JSONFloats(ind.Genome),
			Fitness: hpo.JSONFloats(ind.Fitness),
		})
	}
	sort.SliceStable(points, func(i, j int) bool {
		if !lessFloats(points[i].Fitness, points[j].Fitness) &&
			!lessFloats(points[j].Fitness, points[i].Fitness) {
			return lessFloats(points[i].Genome, points[j].Genome)
		}
		return lessFloats(points[i].Fitness, points[j].Fitness)
	})
	s.writeJSON(w, http.StatusOK, struct {
		Size   int             `json:"size"`
		Points []frontierPoint `json:"points"`
	}{len(points), points})
}

func (s *Service) handleLcurve(w http.ResponseWriter, r *http.Request) {
	if c, ok := s.lookup(w, r); ok {
		s.writeJSON(w, http.StatusOK, c.Lcurve())
	}
}

// handleResult streams the full hpo campaign document (every evaluation
// of every generation), loadable by hpo.LoadCampaign and the offline
// analysis CLIs.
func (s *Service) handleResult(w http.ResponseWriter, r *http.Request) {
	c, ok := s.lookup(w, r)
	if !ok {
		return
	}
	res := c.Result()
	if res == nil {
		s.writeJSON(w, http.StatusConflict, apiError{Error: "no completed generation yet"})
		return
	}
	w.Header().Set("Content-Type", "application/json")
	if err := hpo.SaveCampaign(w, res); err != nil {
		s.logf("result_write_error", "id", c.ID, "err", err)
	}
}

func (s *Service) handleHealthz(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	draining := s.draining
	s.mu.Unlock()
	status := "ok"
	code := http.StatusOK
	if draining {
		status = "draining"
		code = http.StatusServiceUnavailable
	}
	s.writeJSON(w, code, struct {
		Status string `json:"status"`
	}{status})
}
