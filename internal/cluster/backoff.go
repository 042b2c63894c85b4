package cluster

import (
	"math/rand"
	"time"
)

// backoff produces exponentially growing delays with jitter, used by a
// worker's Run loop (and only there: it is not safe for concurrent use)
// to re-dial the scheduler after a connection loss.  Jitter keeps a
// hundred workers that lost the same scheduler from re-dialing in
// lockstep when it comes back — the reconnect stampede is the
// distributed analogue of the paper's "let workers fail, reassign work"
// stance (§2.2.5): failure is routine, so recovery must be cheap.
type backoff struct {
	initial time.Duration // first delay (default 50ms)
	max     time.Duration // delay ceiling (default 5s)
	factor  float64       // growth per attempt (default 2)

	cur  time.Duration
	rng  *rand.Rand
	seed int64
}

func newBackoff(initial, max time.Duration) *backoff {
	if initial <= 0 {
		initial = 50 * time.Millisecond
	}
	if max <= 0 {
		max = 5 * time.Second
	}
	if max < initial {
		max = initial
	}
	return &backoff{initial: initial, max: max, factor: 2}
}

// next returns the delay to sleep before the upcoming attempt and
// advances the schedule.  The returned delay is the current base plus up
// to 50% jitter, capped at max.
func (b *backoff) next() time.Duration {
	if b.rng == nil {
		seed := b.seed
		if seed == 0 {
			seed = time.Now().UnixNano()
		}
		b.rng = rand.New(rand.NewSource(seed))
	}
	if b.cur == 0 {
		b.cur = b.initial
	}
	d := b.cur
	jitter := time.Duration(b.rng.Int63n(int64(d)/2 + 1))
	b.cur = time.Duration(float64(b.cur) * b.factor)
	if b.cur > b.max {
		b.cur = b.max
	}
	if d+jitter > b.max {
		return b.max
	}
	return d + jitter
}

// reset returns the schedule to the initial delay after a successful
// connection.
func (b *backoff) reset() { b.cur = 0 }
