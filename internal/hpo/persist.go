package hpo

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"slices"
	"strconv"
	"time"

	"repro/internal/ea"
	"repro/internal/nsga2"
	"repro/internal/uuid"
)

// A campaign is stored as a record log of newline-terminated JSON lines,
// so a 12-hour campaign (the paper's Summit jobs) can be analyzed
// offline or resumed without re-running anything.  Line 1 is the header
// {"format":"repro-hpo-campaign","version":2,"runs":N}; every later line
// is one GenerationRecord.  The service's checkpoints hold the same
// records under their own header, and ReadRecords replays both.
// Version 1, one indented JSON document, is refused.

// JSONFloats is a float slice whose non-finite members survive JSON as
// the string sentinels "NaN", "+Inf" and "-Inf" (encoding/json rejects
// the bare values): a diverged or cancelled training leaves them in its
// fitness, and they must round-trip.  Finite values use strconv's
// shortest round-trip formatting ('g', -1), so no precision is lost, and
// a nil slice writes [].  appendFloats is the one place that spells the
// format; the record writer uses it too.  Exported for every API surface
// that serializes fitness vectors (the service's frontier, for one).
type JSONFloats []float64

// MarshalJSON implements json.Marshaler with sentinel strings for
// non-finite values.
func (f JSONFloats) MarshalJSON() ([]byte, error) {
	return appendFloats(make([]byte, 0, 16*len(f)+2), f), nil
}

// appendFloats appends f to dst as JSONFloats' MarshalJSON writes it.
func appendFloats(dst []byte, f []float64) []byte {
	dst = append(dst, '[')
	for i, v := range f {
		if i > 0 {
			dst = append(dst, ',')
		}
		switch {
		case math.IsNaN(v):
			dst = append(dst, `"NaN"`...)
		case math.IsInf(v, 1):
			dst = append(dst, `"+Inf"`...)
		case math.IsInf(v, -1):
			dst = append(dst, `"-Inf"`...)
		default:
			dst = strconv.AppendFloat(dst, v, 'g', -1, 64)
		}
	}
	return append(dst, ']')
}

// UnmarshalJSON implements json.Unmarshaler, accepting both plain
// numbers and the sentinel strings.  The common all-numbers array
// decodes straight into []float64.  An array with a string (or anything
// else that is not a number) goes through the sentinel decoder, and so
// does any null: []float64 would take a null member as 0 and a bare
// null as nil, where the sentinel decoder refuses the one and makes an
// empty slice of the other.
func (f *JSONFloats) UnmarshalJSON(data []byte) error {
	var v []float64
	err := json.Unmarshal(data, &v)
	var typeErr *json.UnmarshalTypeError
	switch {
	case errors.As(err, &typeErr) || (err == nil && bytes.Contains(data, []byte("null"))):
		return f.unmarshalSentinels(data)
	case err != nil:
		return err
	}
	*f = v
	return nil
}

// unmarshalSentinels decodes an array whose members are numbers or the
// sentinel strings.
func (f *JSONFloats) unmarshalSentinels(data []byte) error {
	var raw []interface{}
	if err := json.Unmarshal(data, &raw); err != nil {
		return err
	}
	out := make(JSONFloats, len(raw))
	for i, r := range raw {
		switch r {
		case "NaN":
			out[i] = math.NaN()
		case "+Inf", "Inf":
			out[i] = math.Inf(1)
		case "-Inf":
			out[i] = math.Inf(-1)
		default:
			v, ok := r.(float64)
			if !ok {
				return fmt.Errorf("hpo: invalid float %#v", r)
			}
			out[i] = v
		}
	}
	*f = out
	return nil
}

// savedIndividual is the JSON form of one evaluated individual.  Rank and
// crowding distance are omitted (recomputable; see JSONFloats for why
// fitness gets the sentinel treatment instead).  AppendGeneration writes
// the same bytes without building one.
type savedIndividual struct {
	ID        string     `json:"id"`
	Genome    JSONFloats `json:"genome"`
	Fitness   JSONFloats `json:"fitness"`
	Err       string     `json:"err,omitempty"`
	RuntimeMS int64      `json:"runtime_ms"`
	Birth     int        `json:"birth"`
}

// GenerationRecord is one generation of one run, one line of a log.  A
// campaign is the records of all its runs in any interleaving, each
// run's in ascending generation order.
type GenerationRecord struct {
	Run         int               `json:"run"`
	Gen         int               `json:"gen"`
	Evaluated   []savedIndividual `json:"evaluated"`
	SurvivorIDs []string          `json:"survivor_ids"`
	Failures    int               `json:"failures"`
}

// AppendGeneration appends generation gen of run run to dst as one line
// of compact JSON (no trailing newline): exactly the bytes json.Marshal
// writes for the GenerationRecord it decodes to, null for no evaluated
// individuals or no survivors included, without reflection.
func AppendGeneration(dst []byte, run int, gen nsga2.GenerationRecord) []byte {
	dst = append(dst, `{"run":`...)
	dst = strconv.AppendInt(dst, int64(run), 10)
	dst = append(dst, `,"gen":`...)
	dst = strconv.AppendInt(dst, int64(gen.Gen), 10)
	dst = append(dst, `,"evaluated":`...)
	if len(gen.Evaluated) == 0 {
		dst = append(dst, "null"...)
	} else {
		for i, ind := range gen.Evaluated {
			dst = append(dst, listSep(i))
			dst = appendIndividual(dst, ind)
		}
		dst = append(dst, ']')
	}
	dst = append(dst, `,"survivor_ids":`...)
	if len(gen.Survivors) == 0 {
		dst = append(dst, "null"...)
	} else {
		for i, ind := range gen.Survivors {
			dst = append(dst, listSep(i), '"')
			dst = append(ind.ID.Append(dst), '"')
		}
		dst = append(dst, ']')
	}
	dst = append(dst, `,"failures":`...)
	dst = strconv.AppendInt(dst, int64(gen.Failures), 10)
	return append(dst, '}')
}

// listSep is what precedes member i of a JSON array.
func listSep(i int) byte {
	if i == 0 {
		return '['
	}
	return ','
}

// appendIndividual appends ind as its savedIndividual marshals.
func appendIndividual(dst []byte, ind *ea.Individual) []byte {
	dst = append(dst, `{"id":"`...)
	dst = ind.ID.Append(dst)
	dst = append(dst, `","genome":`...)
	dst = appendFloats(dst, ind.Genome)
	dst = append(dst, `,"fitness":`...)
	dst = appendFloats(dst, ind.Fitness)
	if ind.Err != nil && ind.Err.Error() != "" {
		// encoding/json's own string encoding, for its HTML escaping and
		// invalid-UTF-8 replacement; a string always marshals.
		q, _ := json.Marshal(ind.Err.Error())
		dst = append(append(dst, `,"err":`...), q...)
	}
	dst = append(dst, `,"runtime_ms":`...)
	dst = strconv.AppendInt(dst, ind.Runtime.Milliseconds(), 10)
	dst = append(dst, `,"birth":`...)
	dst = strconv.AppendInt(dst, int64(ind.Birth), 10)
	return append(dst, '}')
}

const (
	campaignFormat  = "repro-hpo-campaign"
	campaignVersion = 2
	maxRuns         = 1 << 12 // refused in a header before anything is allocated for it
)

type campaignHeader struct {
	Format  string `json:"format"`
	Version int    `json:"version"`
	Runs    int    `json:"runs"`
}

// SaveCampaign writes c as a campaign log, in one write.
func SaveCampaign(w io.Writer, c *CampaignResult) error {
	buf, err := json.Marshal(campaignHeader{Format: campaignFormat, Version: campaignVersion, Runs: len(c.Runs)})
	if err != nil {
		return err
	}
	for r, run := range c.Runs {
		for _, gen := range run.Generations {
			buf = AppendGeneration(append(buf, '\n'), r, gen)
		}
	}
	_, err = w.Write(append(buf, '\n'))
	return err
}

// SaveCampaignFile writes the campaign log to path.
func SaveCampaignFile(path string, c *CampaignResult) error {
	var buf bytes.Buffer
	if err := SaveCampaign(&buf, c); err != nil {
		return err
	}
	return os.WriteFile(path, buf.Bytes(), 0o644)
}

// LoadCampaign reads a campaign log written by SaveCampaign.  Survivors
// resolve to the same objects as the evaluated individuals they name,
// and every run's final population has its ranks and crowding distances
// recomputed.
func LoadCampaign(r io.Reader) (*CampaignResult, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, err
	}
	return readCampaign("input", data)
}

// LoadCampaignFile reads the campaign log at path.
func LoadCampaignFile(path string) (*CampaignResult, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return readCampaign(path, data)
}

// readCampaign reads the campaign log data, which errors call name.  The
// header is decoded as the first JSON value, not the first line, so a
// version-1 document is refused by its version.
func readCampaign(name string, data []byte) (*CampaignResult, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	var h campaignHeader
	err := dec.Decode(&h)
	if h.Format != campaignFormat || h.Version != campaignVersion {
		return nil, fmt.Errorf("hpo: %s: not a version-%d campaign log (format %q, version %d)", name, campaignVersion, h.Format, h.Version)
	}
	if err != nil {
		return nil, fmt.Errorf("hpo: %s: header: %w", name, err)
	}
	body, whole := bytes.CutPrefix(data[dec.InputOffset():], []byte{'\n'})
	if !whole {
		return nil, fmt.Errorf("hpo: %s: header line is incomplete", name)
	}
	c, _, err := ReadRecords(name, h.Runs, body, nil)
	if c == nil && err == nil { // no run has a record yet
		c = newCampaignBuilder(h.Runs).result()
	}
	return c, err
}

// ReadRecords replays the lines of a record log that follow its one-line
// header: body is every byte after the header's newline, runs the run
// count the header declares, and name what errors call the log.
//
// A final line without its newline is a write a crash tore: it is
// dropped, and torn is its length.  A complete line that does not parse,
// or is not its run's next generation, is an error naming the log and
// the line (the header is line 1).  other, when not nil, sees each line
// first and claims one that is not a record by returning true.  The
// campaign is nil when no line was a record.
func ReadRecords(name string, runs int, body []byte, other func(line []byte) bool) (c *CampaignResult, torn int, err error) {
	if runs < 0 || runs > maxRuns {
		return nil, 0, fmt.Errorf("hpo: %s: %d runs, want 0 to %d", name, runs, maxRuns)
	}
	if end := bytes.LastIndexByte(body, '\n') + 1; end < len(body) {
		torn, body = len(body)-end, body[:end]
	}
	b, records := newCampaignBuilder(runs), 0
	for n := 2; len(body) > 0; n++ {
		var line []byte
		line, body, _ = bytes.Cut(body, []byte{'\n'})
		if other != nil && other(line) {
			continue
		}
		var rec GenerationRecord
		err := json.Unmarshal(line, &rec)
		if err == nil {
			err = b.add(rec)
		}
		if err != nil {
			return nil, torn, fmt.Errorf("hpo: %s line %d: %w", name, n, err)
		}
		records++
	}
	if records == 0 {
		return nil, torn, nil
	}
	return b.result(), torn, nil
}

// campaignBuilder assembles a campaign from generation records fed one
// at a time.  A survivor resolves to the object of the evaluated
// individual it names, of this or an earlier generation of its run.
type campaignBuilder struct {
	runs       []*nsga2.Result
	byID       []map[uuid.UUID]*ea.Individual // per run: every individual evaluated so far
	objectives int                            // every fitness's length; -1 before the first
}

func newCampaignBuilder(runs int) *campaignBuilder {
	b := &campaignBuilder{
		runs:       make([]*nsga2.Result, runs),
		byID:       make([]map[uuid.UUID]*ea.Individual, runs),
		objectives: -1,
	}
	for i := range b.runs {
		b.runs[i] = &nsga2.Result{}
		b.byID[i] = map[uuid.UUID]*ea.Individual{}
	}
	return b
}

// add appends rec to its run.  The run must exist and rec must be the
// run's next generation; an ID is evaluated once per run and names at
// most one survivor of a generation, and every fitness of the campaign
// has the same length (the sorts compare them).  After an error the
// builder is not to be used.
func (b *campaignBuilder) add(rec GenerationRecord) error {
	if rec.Run < 0 || rec.Run >= len(b.runs) {
		return fmt.Errorf("record for run %d of a %d-run campaign", rec.Run, len(b.runs))
	}
	run, byID := b.runs[rec.Run], b.byID[rec.Run]
	if want := len(run.Generations); rec.Gen != want {
		return fmt.Errorf("run %d: record for generation %d, want generation %d", rec.Run, rec.Gen, want)
	}
	out := nsga2.GenerationRecord{Gen: rec.Gen, Failures: rec.Failures}
	for _, si := range rec.Evaluated {
		id, err := uuid.Parse(si.ID)
		if b.objectives < 0 {
			b.objectives = len(si.Fitness)
		}
		runtime := time.Duration(si.RuntimeMS) * time.Millisecond
		switch {
		case err != nil:
			return fmt.Errorf("run %d gen %d: %w", rec.Run, rec.Gen, err)
		case byID[id] != nil:
			return fmt.Errorf("run %d gen %d: individual %s evaluated twice", rec.Run, rec.Gen, id)
		case len(si.Fitness) != b.objectives:
			return fmt.Errorf("run %d gen %d: %d objectives, want %d", rec.Run, rec.Gen, len(si.Fitness), b.objectives)
		case runtime.Milliseconds() != si.RuntimeMS:
			return fmt.Errorf("run %d gen %d: runtime %d ms out of range", rec.Run, rec.Gen, si.RuntimeMS)
		}
		ind := &ea.Individual{
			ID:        id,
			Genome:    ea.Genome(si.Genome),
			Fitness:   ea.Fitness(si.Fitness),
			Evaluated: true,
			Runtime:   runtime,
			Birth:     si.Birth,
		}
		if si.Err != "" {
			ind.Err = errors.New(si.Err) // restored as an opaque string
		}
		byID[id] = ind
		out.Evaluated = append(out.Evaluated, ind)
	}
	for _, sid := range rec.SurvivorIDs {
		id, err := uuid.Parse(sid)
		ind := byID[id]
		switch {
		case err != nil || ind == nil:
			return fmt.Errorf("run %d gen %d: survivor %s not among evaluated", rec.Run, rec.Gen, sid)
		case slices.Contains(out.Survivors, ind):
			return fmt.Errorf("run %d gen %d: survivor %s named twice", rec.Run, rec.Gen, sid)
		}
		out.Survivors = append(out.Survivors, ind)
	}
	run.Generations = append(run.Generations, out)
	return nil
}

// result returns the campaign: one entry per run, empty for a run
// without records.  Every run's final population is its last
// generation's survivors, with ranks and crowding distances recomputed
// so the analyses that read them behave as after a live run.
func (b *campaignBuilder) result() *CampaignResult {
	for _, run := range b.runs {
		if n := len(run.Generations); n > 0 {
			run.Final = run.Generations[n-1].Survivors
			fronts := nsga2.RankOrdinalSort(run.Final)
			nsga2.CrowdingDistanceAll(fronts)
		}
	}
	return &CampaignResult{Runs: b.runs}
}
