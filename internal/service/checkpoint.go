package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"repro/internal/hpo"
)

// Checkpoints are one JSON file per campaign — service metadata wrapped
// around the standard hpo campaign format — rewritten atomically
// (write-temp-then-rename) after every completed campaign generation and
// on every state change.  A checkpoint holds whatever every run has
// completed when it is written, so runs may sit at different generations
// inside it.  Because every run's legs carry restart-invariant seeds
// (see Service.run), each run resumes from its own last generation onto
// exactly the trajectory an uninterrupted run would have taken: a drain
// loses at most each run's in-flight generation, never a completed one,
// and never changes the final frontier.

const (
	checkpointFormat  = "repro-service-campaign"
	checkpointVersion = 1
)

type checkpointMeta struct {
	ID      string    `json:"id"`
	Tenant  string    `json:"tenant"`
	Created time.Time `json:"created"`
	Spec    Spec      `json:"spec"`
	State   State     `json:"state"`
	Error   string    `json:"error,omitempty"`
}

type checkpointFile struct {
	Format  string         `json:"format"`
	Version int            `json:"version"`
	Meta    checkpointMeta `json:"meta"`
	// Campaign is the raw hpo.SaveCampaign document; absent before the
	// first completed generation.
	Campaign json.RawMessage `json:"campaign,omitempty"`
}

// checkpoint persists c to CheckpointDir/<id>.json; a no-op without a
// checkpoint directory.
func (s *Service) checkpoint(c *Campaign) error {
	c.mu.Lock()
	st, errMsg := c.state, c.errMsg
	c.mu.Unlock()
	return s.checkpointAs(c, st, errMsg)
}

// settle ends c's execution in state st: the checkpoint is written first
// and the state shown after, so whoever reads a done, failed, cancelled
// or suspended state — a client about to fetch results, a second service
// about to Restore the directory — finds the checkpoint that says so.
func (s *Service) settle(c *Campaign, st State, errMsg string) {
	if err := s.checkpointAs(c, st, errMsg); err != nil {
		s.logf("checkpoint_error", "id", c.ID, "err", err)
	}
	c.mu.Lock()
	c.state, c.errMsg = st, errMsg
	c.mu.Unlock()
}

// checkpointAs persists c with the given state and error message.
func (s *Service) checkpointAs(c *Campaign, st State, errMsg string) error {
	if s.cfg.CheckpointDir == "" {
		return nil
	}
	c.mu.Lock()
	cf := checkpointFile{
		Format:  checkpointFormat,
		Version: checkpointVersion,
		Meta: checkpointMeta{
			ID:      c.ID,
			Tenant:  c.Tenant,
			Created: c.Created,
			Spec:    c.Spec,
			State:   st,
			Error:   errMsg,
		},
	}
	res := c.result
	c.mu.Unlock()

	if res != nil {
		var buf bytes.Buffer
		if err := hpo.SaveCampaign(&buf, res); err != nil {
			return fmt.Errorf("service: checkpoint %s: %w", c.ID, err)
		}
		cf.Campaign = json.RawMessage(buf.Bytes())
	}
	data, err := json.Marshal(&cf)
	if err != nil {
		return fmt.Errorf("service: checkpoint %s: %w", c.ID, err)
	}
	path := filepath.Join(s.cfg.CheckpointDir, c.ID+".json")
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}

// Restore loads every checkpoint from CheckpointDir into the registry
// and requeues the resumable ones (queued, running or suspended at
// checkpoint time — "running" means the previous process died without
// draining).  Terminal campaigns are registered read-only so clients can
// still fetch their frontiers and results.  Call once, after New and
// before serving traffic.  It returns the number of campaigns requeued.
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

	type loadedCampaign struct {
		meta checkpointMeta
		res  *hpo.CampaignResult
	}
	var loaded []loadedCampaign
	for _, ent := range entries {
		name := ent.Name()
		if ent.IsDir() || !strings.HasSuffix(name, ".json") {
			continue
		}
		data, err := os.ReadFile(filepath.Join(s.cfg.CheckpointDir, name))
		if err != nil {
			return 0, err
		}
		var cf checkpointFile
		if err := json.Unmarshal(data, &cf); err != nil {
			return 0, fmt.Errorf("service: checkpoint %s: %w", name, err)
		}
		if cf.Format != checkpointFormat {
			return 0, fmt.Errorf("service: checkpoint %s: not a service checkpoint (format %q)", name, cf.Format)
		}
		if cf.Version != checkpointVersion {
			return 0, fmt.Errorf("service: checkpoint %s: unsupported version %d", name, cf.Version)
		}
		if err := (&cf.Meta.Spec).validate(); err != nil {
			return 0, fmt.Errorf("service: checkpoint %s: %w", name, err)
		}
		lc := loadedCampaign{meta: cf.Meta}
		if len(cf.Campaign) > 0 {
			lc.res, err = hpo.LoadCampaign(bytes.NewReader(cf.Campaign))
			if err != nil {
				return 0, fmt.Errorf("service: checkpoint %s: %w", name, err)
			}
			if got, want := len(lc.res.Runs), cf.Meta.Spec.Runs; got > want {
				return 0, fmt.Errorf("service: checkpoint %s: holds %d runs, its spec has %d", name, got, want)
			}
		}
		loaded = append(loaded, lc)
	}
	// Recover the original admission order: creation time, then ID as the
	// tiebreak, so fairness after a bounce matches fairness before it.
	sort.Slice(loaded, func(i, j int) bool {
		if !loaded[i].meta.Created.Equal(loaded[j].meta.Created) {
			return loaded[i].meta.Created.Before(loaded[j].meta.Created)
		}
		return loaded[i].meta.ID < loaded[j].meta.ID
	})

	requeued := 0
	var resumed []*Campaign
	s.mu.Lock()
	for _, lc := range loaded {
		if _, exists := s.campaigns[lc.meta.ID]; exists {
			continue
		}
		c := &Campaign{
			ID:      lc.meta.ID,
			Tenant:  lc.meta.Tenant,
			Spec:    lc.meta.Spec,
			Created: lc.meta.Created,
			ring:    NewRing(s.cfg.EventBuffer),
			result:  lc.res,
			errMsg:  lc.meta.Error,
		}
		s.campaigns[c.ID] = c
		s.order = append(s.order, c.ID)
		t := s.tenantLocked(c.Tenant)
		if lc.meta.State.Terminal() {
			c.state = lc.meta.State
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
