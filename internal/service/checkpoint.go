package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/hpo"
	"repro/internal/nsga2"
)

// A checkpoint is one append-only file per campaign, CheckpointDir/<id>.json,
// of newline-terminated JSON values:
//
//	line 1   the header — format, version, id, tenant, created, spec — and
//	line 2   the state line {"state":"queued"}, written together by Create
//	         through write-temp-then-rename before the campaign is
//	         registered, so the file exists whole before anything can be
//	         appended to it;
//	later    either a state line {"state":…,"error":…}, appended by settle
//	         when the campaign's execution ends (done, failed, cancelled,
//	         suspended), or one generation of one run in hpo's record
//	         encoding ({"run":…,"gen":…,"evaluated":[…],…}), appended by
//	         the lane that produced it.
//
// Every byte is written once: nothing is rewritten, and a campaign's file
// grows by one record per (run, generation).  Two ordering rules make the
// file the truth behind everything the service shows:
//
//   - record before publish: a lane appends its generation before
//     Campaign.publish makes it visible, so no generation event, status or
//     frontier is ever ahead of the bytes that back it;
//   - state line before state: settle appends the state line before it
//     changes the campaign's state, so whoever reads a done, failed,
//     cancelled or suspended state — a client about to fetch results, a
//     second service about to Restore the directory — finds the file that
//     says so.
//
// Restore replays header → records → last state line.  A campaign whose
// last state is queued or suspended is requeued, and because every run's
// legs carry restart-invariant seeds (see Service.run), each run resumes
// from its own last record onto exactly the trajectory an uninterrupted
// run would have taken: a drain loses at most each run's in-flight
// generation, never a completed one, and never changes the final
// frontier.
//
// Torn tail: an append is a single write, so a process killed inside one
// leaves at most a final line without its newline.  Restore drops such a
// line and truncates the file back to the last complete one before
// anything new is appended — the run re-evaluates that generation, the
// same loss as a drain mid-leg.  That is done only to a file whose first
// line parsed as a version-2 header; anything else — a version-1
// whole-document checkpoint, a foreign file — is refused untouched.  A
// complete line that does not parse, or a record that is not its run's
// next generation, is an error naming file and line: it means something
// other than a crash damaged the file.

const (
	checkpointFormat  = "repro-service-campaign"
	checkpointVersion = 2
)

// checkpointHeader is line 1 of a checkpoint.
type checkpointHeader struct {
	Format  string    `json:"format"`
	Version int       `json:"version"`
	ID      string    `json:"id"`
	Tenant  string    `json:"tenant"`
	Created time.Time `json:"created"`
	Spec    Spec      `json:"spec"`
}

// stateLine records a state change.
type stateLine struct {
	State State  `json:"state"`
	Error string `json:"error,omitempty"`
}

// checkpointLine decodes any line after the header: a state line when
// State is set, else a generation record.
type checkpointLine struct {
	stateLine
	hpo.GenerationRecord
}

func (s *Service) checkpointPath(id string) string {
	return filepath.Join(s.cfg.CheckpointDir, id+".json")
}

// countWrite feeds the /metrics checkpoint counters.
func (s *Service) countWrite(n int) {
	atomic.AddInt64(&s.ckptAppends, 1)
	atomic.AddInt64(&s.ckptBytes, int64(n))
}

// jsonLine encodes v as one newline-terminated line.
func jsonLine(v interface{}) ([]byte, error) {
	data, err := json.Marshal(v)
	return append(data, '\n'), err
}

// createCheckpoint writes c's header and its queued state line to a
// fresh file, atomically; a no-op without a checkpoint directory.
func (s *Service) createCheckpoint(c *Campaign) error {
	if s.cfg.CheckpointDir == "" {
		return nil
	}
	head, err := jsonLine(checkpointHeader{
		Format: checkpointFormat, Version: checkpointVersion,
		ID: c.ID, Tenant: c.Tenant, Created: c.Created, Spec: c.Spec,
	})
	if err != nil {
		return err
	}
	queued, err := jsonLine(stateLine{State: StateQueued})
	if err != nil {
		return err
	}
	data := append(head, queued...)
	path := s.checkpointPath(c.ID)
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		return err
	}
	s.countWrite(len(data))
	return nil
}

// appendCheckpoint appends one line to c's checkpoint in a single write.
// The first failure ends the campaign's checkpointing: later appends are
// dropped, so the file stays a prefix Restore can replay (a partial line
// is its torn tail) instead of growing a gap.
func (s *Service) appendCheckpoint(c *Campaign, line []byte) error {
	c.ckptMu.Lock()
	defer c.ckptMu.Unlock()
	if c.ckptBroken {
		return nil
	}
	f, err := os.OpenFile(s.checkpointPath(c.ID), os.O_WRONLY|os.O_APPEND, 0)
	if err == nil {
		_, err = f.Write(line)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}
	if err != nil {
		c.ckptBroken = true
		return fmt.Errorf("checkpointing stopped: %w", err)
	}
	s.countWrite(len(line))
	return nil
}

// appendRecord checkpoints generation gen of run r of c; a no-op without
// a checkpoint directory.  Lanes call it before publishing the run.
func (s *Service) appendRecord(c *Campaign, r int, gen nsga2.GenerationRecord) {
	if s.cfg.CheckpointDir == "" {
		return
	}
	line, err := hpo.MarshalGeneration(r, gen)
	if err == nil {
		err = s.appendCheckpoint(c, append(line, '\n'))
	}
	if err != nil {
		s.logf("checkpoint_error", "id", c.ID, "run", r, "gen", gen.Gen, "err", err)
	}
}

// settle ends c's execution in state st: the state line is appended
// first and the state shown after (see the ordering rules above).
func (s *Service) settle(c *Campaign, st State, errMsg string) {
	if s.cfg.CheckpointDir != "" {
		line, err := jsonLine(stateLine{State: st, Error: errMsg})
		if err == nil {
			err = s.appendCheckpoint(c, line)
		}
		if err != nil {
			s.logf("checkpoint_error", "id", c.ID, "state", st, "err", err)
		}
	}
	c.mu.Lock()
	c.state, c.errMsg = st, errMsg
	c.mu.Unlock()
}

// loadedCampaign is one checkpoint file replayed.
type loadedCampaign struct {
	head   checkpointHeader
	state  stateLine
	result *hpo.CampaignResult // nil without records
}

// loadCheckpoint replays the checkpoint file at path, truncating a torn
// tail.  Errors name the file (and the line, past the header).
func (s *Service) loadCheckpoint(path string) (*loadedCampaign, error) {
	name := filepath.Base(path)
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	first, rest, whole := bytes.Cut(data, []byte{'\n'})
	lc := &loadedCampaign{state: stateLine{State: StateQueued}}
	if err := json.Unmarshal(first, &lc.head); err != nil {
		return nil, fmt.Errorf("service: checkpoint %s: %w", name, err)
	}
	if lc.head.Format != checkpointFormat {
		return nil, fmt.Errorf("service: checkpoint %s: not a service checkpoint (format %q)", name, lc.head.Format)
	}
	if lc.head.Version != checkpointVersion {
		return nil, fmt.Errorf("service: checkpoint %s: unsupported version %d", name, lc.head.Version)
	}
	if !whole {
		return nil, fmt.Errorf("service: checkpoint %s: header line is incomplete", name)
	}
	if err := (&lc.head.Spec).validate(); err != nil {
		return nil, fmt.Errorf("service: checkpoint %s: %w", name, err)
	}

	if end := bytes.LastIndexByte(rest, '\n') + 1; end < len(rest) {
		torn := len(rest) - end
		rest = rest[:end]
		if err := os.Truncate(path, int64(len(data)-torn)); err != nil {
			return nil, fmt.Errorf("service: checkpoint %s: dropping torn tail: %w", name, err)
		}
		s.logf("checkpoint_torn_tail", "file", name, "dropped_bytes", torn)
	}

	b := hpo.NewCampaignBuilder(lc.head.Spec.Runs)
	records := 0
	for n := 2; len(rest) > 0; n++ {
		var line []byte
		line, rest, _ = bytes.Cut(rest, []byte{'\n'})
		var ln checkpointLine
		if err := json.Unmarshal(line, &ln); err != nil {
			return nil, fmt.Errorf("service: checkpoint %s line %d: %w", name, n, err)
		}
		if ln.State != "" {
			lc.state = ln.stateLine
			continue
		}
		if err := b.Add(ln.GenerationRecord); err != nil {
			return nil, fmt.Errorf("service: checkpoint %s line %d: %w", name, n, err)
		}
		records++
	}
	if records > 0 {
		lc.result = b.Result()
	}
	return lc, nil
}

// Restore loads every checkpoint from CheckpointDir into the registry
// and requeues the resumable ones (queued or suspended by their last
// state line — "queued" with records means the previous process died
// without draining).  Terminal campaigns are registered read-only so
// clients can still fetch their frontiers and results.  Call once, after
// New and before serving traffic.  It returns the number of campaigns
// requeued.
func (s *Service) Restore() (int, error) {
	if s.cfg.CheckpointDir == "" {
		return 0, nil
	}
	entries, err := os.ReadDir(s.cfg.CheckpointDir)
	if err != nil {
		if os.IsNotExist(err) {
			return 0, nil
		}
		return 0, err
	}

	var loaded []*loadedCampaign
	for _, ent := range entries {
		name := ent.Name()
		if ent.IsDir() || !strings.HasSuffix(name, ".json") {
			continue
		}
		lc, err := s.loadCheckpoint(filepath.Join(s.cfg.CheckpointDir, name))
		if err != nil {
			return 0, err
		}
		loaded = append(loaded, lc)
	}
	// Recover the original admission order: creation time, then ID as the
	// tiebreak, so fairness after a bounce matches fairness before it.
	sort.Slice(loaded, func(i, j int) bool {
		if !loaded[i].head.Created.Equal(loaded[j].head.Created) {
			return loaded[i].head.Created.Before(loaded[j].head.Created)
		}
		return loaded[i].head.ID < loaded[j].head.ID
	})

	requeued := 0
	var resumed []*Campaign
	s.mu.Lock()
	for _, lc := range loaded {
		if _, exists := s.campaigns[lc.head.ID]; exists {
			continue
		}
		c := &Campaign{
			ID:      lc.head.ID,
			Tenant:  lc.head.Tenant,
			Spec:    lc.head.Spec,
			Created: lc.head.Created,
			ring:    NewRing(s.cfg.EventBuffer),
			result:  lc.result,
			errMsg:  lc.state.Error,
		}
		s.campaigns[c.ID] = c
		s.order = append(s.order, c.ID)
		t := s.tenantLocked(c.Tenant)
		if lc.state.State.Terminal() {
			c.state = lc.state.State
			continue
		}
		c.state = StateQueued
		t.total++
		t.queue = append(t.queue, c)
		requeued++
		resumed = append(resumed, c)
	}
	s.mu.Unlock()

	for _, c := range resumed {
		c.emit(Event{Type: "restored", Gen: func() int {
			c.mu.Lock()
			defer c.mu.Unlock()
			return c.gensDoneLocked()
		}()})
		s.logf("campaign_restored", "id", c.ID, "tenant", c.Tenant)
	}
	s.logf("restore_done", "loaded", len(loaded), "requeued", requeued)

	s.mu.Lock()
	s.dispatchLocked()
	s.mu.Unlock()
	return requeued, nil
}
