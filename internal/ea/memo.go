package ea

import (
	"context"
	"encoding/binary"
	"math"
	"sync"
)

// GenomeKey returns a byte-exact cache key for a genome: the IEEE-754
// bits of every gene, little-endian concatenated.  Two genomes map to the
// same key iff they are bitwise identical, so memoization never conflates
// merely-close genomes (and distinguishes +0 from −0 and NaN payloads,
// conservatively).
func GenomeKey(g Genome) string {
	buf := make([]byte, 8*len(g))
	for i, v := range g {
		binary.LittleEndian.PutUint64(buf[8*i:], math.Float64bits(v))
	}
	return string(buf)
}

// MemoStats is a snapshot of a MemoEvaluator's counters.
type MemoStats struct {
	// Hits counts evaluations answered from the cache (including waiters
	// that piggybacked on an in-flight leader evaluation).
	Hits int
	// Misses counts evaluations that ran the inner evaluator.
	Misses int
	// Entries is the number of cached fitnesses.
	Entries int
}

// memoEntry is one in-flight or completed evaluation.  done is closed
// when fit/ok are final; the leader writes them before, unlocked.
type memoEntry struct {
	done chan struct{}
	fit  Fitness
	ok   bool
}

// MemoEvaluator wraps an Evaluator with genome-keyed fitness
// memoization.  NSGA-II's clone-and-mutate pipeline routinely emits
// exact-duplicate genomes (unmutated clones, converged populations);
// since evaluation is deterministic for a fixed genome, re-training such
// duplicates is pure waste — in the paper's terms, hours of DeePMD
// training per duplicate.  The cache is keyed on the genome's exact bits
// (GenomeKey) and stores only successful results: failures are never
// cached, so a flaky evaluation gets retried if the genome reappears.
//
// Concurrent lookups of the same genome coalesce, singleflight-style:
// the first caller (the leader) runs the inner evaluator while the rest
// wait on its result.  If the leader fails — including by panicking
// inside the inner evaluator — waiting callers re-compete to lead
// rather than inheriting the failure or blocking on an entry that will
// never resolve.
type MemoEvaluator struct {
	// Inner is the wrapped evaluator.
	Inner Evaluator

	mu      sync.Mutex
	entries map[string]*memoEntry
	hits    int
	misses  int
}

// NewMemoEvaluator wraps inner with an empty cache.
func NewMemoEvaluator(inner Evaluator) *MemoEvaluator {
	return &MemoEvaluator{Inner: inner, entries: make(map[string]*memoEntry)}
}

// Evaluate implements Evaluator.  Duplicate genomes return the cached
// fitness (a defensive copy) without touching the inner evaluator.
func (m *MemoEvaluator) Evaluate(ctx context.Context, g Genome) (Fitness, error) {
	key := GenomeKey(g)
	for {
		m.mu.Lock()
		if m.entries == nil {
			m.entries = make(map[string]*memoEntry)
		}
		e, found := m.entries[key]
		if !found {
			// Leader: publish the in-flight entry, then evaluate.
			e = &memoEntry{done: make(chan struct{})}
			m.entries[key] = e
			m.misses++
			m.mu.Unlock()
			return m.lead(ctx, key, e, g)
		}
		m.hits++
		m.mu.Unlock()

		select {
		case <-e.done:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
		if e.ok {
			return e.fit.Clone(), nil
		}
		// The leader failed and removed the entry; re-compete.  The hit
		// already counted converts into a miss if this caller leads.
		m.mu.Lock()
		m.hits--
		m.mu.Unlock()
	}
}

// lead runs the inner evaluator as the singleflight leader for key and
// releases the waiters.  On failure, a panic included, the entry is
// unpublished before done closes, so waiters re-compete for leadership
// instead of inheriting the failure; the panic itself propagates, and the
// evaluation pool's safeEvaluate turns it into a MAXINT failure.
func (m *MemoEvaluator) lead(ctx context.Context, key string, e *memoEntry, g Genome) (Fitness, error) {
	defer func() {
		if !e.ok {
			m.mu.Lock()
			delete(m.entries, key)
			m.mu.Unlock()
		}
		close(e.done)
	}()
	fit, err := m.Inner.Evaluate(ctx, g)
	if err != nil {
		return nil, err
	}
	e.fit, e.ok = fit.Clone(), true // read only after done closes
	return fit, nil
}

// Stats returns a snapshot of the cache counters.
func (m *MemoEvaluator) Stats() MemoStats {
	m.mu.Lock()
	defer m.mu.Unlock()
	n := 0
	for _, e := range m.entries {
		select {
		case <-e.done:
			if e.ok {
				n++
			}
		default:
		}
	}
	return MemoStats{Hits: m.hits, Misses: m.misses, Entries: n}
}
