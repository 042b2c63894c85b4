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

// saveGeneration is the one place that knows how a generation and its
// individuals are written: the campaign document and the standalone
// records below are both made of it.
func saveGeneration(gen nsga2.GenerationRecord) savedGeneration {
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
	return sg
}

// GenerationRecord is one generation of one run as a standalone JSON
// value: the campaign document's generation object with the run index in
// front.  It is the unit of append-only logs (the campaign service's
// checkpoints): a campaign is the records of all its runs in any
// interleaving, each run's in ascending generation order.
type GenerationRecord struct {
	Run int `json:"run"`
	savedGeneration
}

// MarshalGeneration encodes generation gen of run run as one line of
// compact JSON (no trailing newline); it decodes with json.Unmarshal
// into a GenerationRecord.
func MarshalGeneration(run int, gen nsga2.GenerationRecord) ([]byte, error) {
	return json.Marshal(GenerationRecord{Run: run, savedGeneration: saveGeneration(gen)})
}

// SaveCampaign writes a campaign result as JSON.
func SaveCampaign(w io.Writer, c *CampaignResult) error {
	sc := savedCampaign{Format: campaignFormat, Version: campaignVersion}
	for _, run := range c.Runs {
		var sr savedRun
		for _, gen := range run.Generations {
			sr.Generations = append(sr.Generations, saveGeneration(gen))
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

// CampaignBuilder assembles a CampaignResult from generation records
// fed one at a time, so a reader of a record stream can say which record
// was bad.  Individuals are reconstructed with survivors resolving to
// the same objects as the evaluated individuals they reference (of this
// or an earlier generation of the run).
type CampaignBuilder struct {
	runs []*nsga2.Result
	byID []map[string]*ea.Individual // per run: every individual seen so far
}

// NewCampaignBuilder starts a campaign of the given number of runs.
func NewCampaignBuilder(runs int) *CampaignBuilder {
	b := &CampaignBuilder{
		runs: make([]*nsga2.Result, runs),
		byID: make([]map[string]*ea.Individual, runs),
	}
	for i := range b.runs {
		b.runs[i] = &nsga2.Result{}
		b.byID[i] = map[string]*ea.Individual{}
	}
	return b
}

// Add appends rec to its run.  The run must exist and rec must be the
// run's next generation; after an error the builder is not to be used.
func (b *CampaignBuilder) Add(rec GenerationRecord) error {
	if rec.Run < 0 || rec.Run >= len(b.runs) {
		return fmt.Errorf("hpo: record for run %d of a %d-run campaign", rec.Run, len(b.runs))
	}
	run, byID := b.runs[rec.Run], b.byID[rec.Run]
	if want := len(run.Generations); rec.Gen != want {
		return fmt.Errorf("hpo: run %d: record for generation %d, want generation %d", rec.Run, rec.Gen, want)
	}
	out := nsga2.GenerationRecord{Gen: rec.Gen, Failures: rec.Failures}
	for _, si := range rec.Evaluated {
		id, err := uuid.Parse(si.ID)
		if err != nil {
			return fmt.Errorf("hpo: run %d gen %d: %w", rec.Run, rec.Gen, err)
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
		out.Evaluated = append(out.Evaluated, ind)
	}
	for _, sid := range rec.SurvivorIDs {
		ind, ok := byID[sid]
		if !ok {
			return fmt.Errorf("hpo: run %d gen %d: survivor %s not among evaluated", rec.Run, rec.Gen, sid)
		}
		out.Survivors = append(out.Survivors, ind)
	}
	run.Generations = append(run.Generations, out)
	return nil
}

// Result returns the campaign assembled so far: one entry per run, empty
// for a run without records.  Every run's final population is its last
// generation's survivors, with ranks and crowding distances recomputed so
// the analyses that read them behave as after a live run.
func (b *CampaignBuilder) Result() *CampaignResult {
	for _, run := range b.runs {
		if n := len(run.Generations); n > 0 {
			run.Final = run.Generations[n-1].Survivors
			fronts := nsga2.RankOrdinalSort(run.Final)
			nsga2.CrowdingDistanceAll(fronts)
		}
	}
	return &CampaignResult{Runs: b.runs}
}

// CampaignFromRecords assembles a campaign of the given number of runs
// from its generation records (see GenerationRecord for the order).
func CampaignFromRecords(runs int, recs []GenerationRecord) (*CampaignResult, error) {
	b := NewCampaignBuilder(runs)
	for _, rec := range recs {
		if err := b.Add(rec); err != nil {
			return nil, err
		}
	}
	return b.Result(), nil
}

// LoadCampaign reads a campaign saved with SaveCampaign.  Individuals are
// reconstructed with ranks/distances recomputed per run, and survivors
// resolve to the same objects as the evaluated individuals they
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
	var recs []GenerationRecord
	for ri, sr := range sc.Runs {
		for _, sg := range sr.Generations {
			recs = append(recs, GenerationRecord{Run: ri, savedGeneration: sg})
		}
	}
	return CampaignFromRecords(len(sc.Runs), recs)
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
