package hpo

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"strconv"
	"time"

	"repro/internal/ea"
	"repro/internal/nsga2"
	"repro/internal/uuid"
)

// The persistence format stores every evaluation of every generation of
// every run, so a 12-hour campaign (the paper's Summit jobs) can be
// analyzed offline or resumed into the figure/table generators without
// re-running anything.

// JSONFloats is a float slice whose non-finite members survive JSON:
// NaN and ±Inf are encoded as the string sentinels "NaN", "+Inf" and
// "-Inf" (encoding/json rejects the bare values outright).  Rank and
// crowding distance are dropped rather than sentinel-encoded because
// they are recomputable; fitness values are not — an evaluator that
// returns +Inf for a diverged loss, or the NaNs a cancelled training
// leaves behind, must round-trip or the whole campaign refuses to save.
// Finite values use strconv's shortest round-trip formatting, so no
// precision is lost either way.  Exported because every API surface that
// serializes fitness vectors (the campaign service's frontier endpoint,
// for one) has the same problem.
type JSONFloats []float64

// MarshalJSON implements json.Marshaler with sentinel strings for
// non-finite values.
func (f JSONFloats) MarshalJSON() ([]byte, error) {
	buf := make([]byte, 0, 16*len(f)+2)
	buf = append(buf, '[')
	for i, v := range f {
		if i > 0 {
			buf = append(buf, ',')
		}
		switch {
		case math.IsNaN(v):
			buf = append(buf, `"NaN"`...)
		case math.IsInf(v, 1):
			buf = append(buf, `"+Inf"`...)
		case math.IsInf(v, -1):
			buf = append(buf, `"-Inf"`...)
		default:
			buf = strconv.AppendFloat(buf, v, 'g', -1, 64)
		}
	}
	return append(buf, ']'), nil
}

// UnmarshalJSON implements json.Unmarshaler, accepting both plain
// numbers and the sentinel strings.
func (f *JSONFloats) UnmarshalJSON(data []byte) error {
	var raw []json.RawMessage
	if err := json.Unmarshal(data, &raw); err != nil {
		return err
	}
	out := make(JSONFloats, len(raw))
	for i, r := range raw {
		if len(r) > 0 && r[0] == '"' {
			var s string
			if err := json.Unmarshal(r, &s); err != nil {
				return err
			}
			switch s {
			case "NaN":
				out[i] = math.NaN()
			case "+Inf", "Inf":
				out[i] = math.Inf(1)
			case "-Inf":
				out[i] = math.Inf(-1)
			default:
				return fmt.Errorf("hpo: invalid float sentinel %q", s)
			}
			continue
		}
		v, err := strconv.ParseFloat(string(r), 64)
		if err != nil {
			return fmt.Errorf("hpo: invalid float %q: %w", r, err)
		}
		out[i] = v
	}
	*f = out
	return nil
}

// savedIndividual is the JSON form of one evaluated individual.  Rank and
// crowding distance are omitted (recomputable; see JSONFloats for why
// fitness gets the sentinel treatment instead).
type savedIndividual struct {
	ID        string     `json:"id"`
	Genome    JSONFloats `json:"genome"`
	Fitness   JSONFloats `json:"fitness"`
	Err       string     `json:"err,omitempty"`
	RuntimeMS int64      `json:"runtime_ms"`
	Birth     int        `json:"birth"`
}

type savedGeneration struct {
	Gen         int               `json:"gen"`
	Evaluated   []savedIndividual `json:"evaluated"`
	SurvivorIDs []string          `json:"survivor_ids"`
	Failures    int               `json:"failures"`
}

type savedRun struct {
	Generations []savedGeneration `json:"generations"`
}

type savedCampaign struct {
	Format  string     `json:"format"`
	Version int        `json:"version"`
	Runs    []savedRun `json:"runs"`
}

const (
	campaignFormat  = "repro-hpo-campaign"
	campaignVersion = 1
)

// SaveCampaign writes a campaign result as JSON.
func SaveCampaign(w io.Writer, c *CampaignResult) error {
	sc := savedCampaign{Format: campaignFormat, Version: campaignVersion}
	for _, run := range c.Runs {
		var sr savedRun
		for _, gen := range run.Generations {
			sg := savedGeneration{Gen: gen.Gen, Failures: gen.Failures}
			for _, ind := range gen.Evaluated {
				si := savedIndividual{
					ID:        ind.ID.String(),
					Genome:    JSONFloats(ind.Genome),
					Fitness:   JSONFloats(ind.Fitness),
					RuntimeMS: ind.Runtime.Milliseconds(),
					Birth:     ind.Birth,
				}
				if ind.Err != nil {
					si.Err = ind.Err.Error()
				}
				sg.Evaluated = append(sg.Evaluated, si)
			}
			for _, ind := range gen.Survivors {
				sg.SurvivorIDs = append(sg.SurvivorIDs, ind.ID.String())
			}
			sr.Generations = append(sr.Generations, sg)
		}
		sc.Runs = append(sc.Runs, sr)
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(&sc)
}

// SaveCampaignFile writes the campaign to path.
func SaveCampaignFile(path string, c *CampaignResult) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := SaveCampaign(f, c); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// savedErr restores evaluation errors as opaque strings.
type savedErr string

func (e savedErr) Error() string { return string(e) }

// LoadCampaign reads a campaign saved with SaveCampaign.  Individuals are
// reconstructed with ranks/distances recomputed per generation, and
// survivors resolve to the same objects as the evaluated individuals they
// reference.
func LoadCampaign(r io.Reader) (*CampaignResult, error) {
	var sc savedCampaign
	if err := json.NewDecoder(r).Decode(&sc); err != nil {
		return nil, fmt.Errorf("hpo: decoding campaign: %w", err)
	}
	if sc.Format != campaignFormat {
		return nil, fmt.Errorf("hpo: not a campaign file (format %q)", sc.Format)
	}
	if sc.Version != campaignVersion {
		return nil, fmt.Errorf("hpo: unsupported campaign version %d", sc.Version)
	}
	out := &CampaignResult{}
	for ri, sr := range sc.Runs {
		run := &nsga2.Result{}
		byID := map[string]*ea.Individual{}
		for _, sg := range sr.Generations {
			rec := nsga2.GenerationRecord{Gen: sg.Gen, Failures: sg.Failures}
			for _, si := range sg.Evaluated {
				id, err := uuid.Parse(si.ID)
				if err != nil {
					return nil, fmt.Errorf("hpo: run %d gen %d: %w", ri, sg.Gen, err)
				}
				ind := &ea.Individual{
					ID:        id,
					Genome:    ea.Genome(si.Genome),
					Fitness:   ea.Fitness(si.Fitness),
					Evaluated: true,
					Runtime:   time.Duration(si.RuntimeMS) * time.Millisecond,
					Birth:     si.Birth,
				}
				if si.Err != "" {
					ind.Err = savedErr(si.Err)
				}
				byID[si.ID] = ind
				rec.Evaluated = append(rec.Evaluated, ind)
			}
			for _, sid := range sg.SurvivorIDs {
				ind, ok := byID[sid]
				if !ok {
					return nil, fmt.Errorf("hpo: run %d gen %d: survivor %s not among evaluated", ri, sg.Gen, sid)
				}
				rec.Survivors = append(rec.Survivors, ind)
			}
			run.Generations = append(run.Generations, rec)
		}
		if n := len(run.Generations); n > 0 {
			run.Final = run.Generations[n-1].Survivors
			// Recompute ranks and crowding on the final population so the
			// analyses that read them behave as after a live run.
			fronts := nsga2.RankOrdinalSort(run.Final)
			nsga2.CrowdingDistanceAll(fronts)
		}
		out.Runs = append(out.Runs, run)
	}
	return out, nil
}

// LoadCampaignFile reads a campaign from path.
func LoadCampaignFile(path string) (*CampaignResult, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return LoadCampaign(f)
}
