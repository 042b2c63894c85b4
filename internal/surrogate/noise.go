package surrogate

import "math/rand"

// noiseSource is a rand.Source64 whose stream is, bit for bit, the one
// rand.NewSource(seed) yields, but whose Seed costs O(1) instead of
// filling all 607 words of math/rand's lagged-Fibonacci register: a
// word is computed the first time a draw reads it.  An evaluation draws
// at most four numbers, so it touches about eight words.
//
// math/rand seeds word i as three consecutive steps of the Lehmer
// generator x ← 48271·x mod (2³¹−1), started 21 + 3i steps after the
// reduced seed, packed as x₁<<40 ^ x₂<<20 ^ x₃ and XORed with entry i of
// a private table (rngCooked).  The first step is one multiplication by
// a precomputed power; the table is recovered at init from the first
// 607 outputs of rand.NewSource(1), so nothing is copied out of the
// standard library.
type noiseSource struct {
	seed      uint64 // reduced seed, in [1, 2³¹−2]
	tap, feed int    // register indices, as in math/rand
	n         int    // draws since Seed, counted up to rngLen-rngTap
	vec       [rngLen]int64
}

const (
	rngLen   = 607
	rngTap   = 273
	lehmerA  = 48271
	lehmerM  = 1<<31 - 1
	seedZero = 89482311 // what math/rand substitutes for a zero seed
)

var (
	// lehmerPow[i] is 48271^(21+3i) mod (2³¹−1): the multiplier that
	// takes the reduced seed to the first Lehmer step of word i.
	lehmerPow [rngLen]uint64
	// cooked is math/rand's rngCooked.
	cooked [rngLen]int64
)

func init() {
	p := uint64(1)
	for n := 0; n < 21; n++ {
		p = p * lehmerA % lehmerM
	}
	cube := uint64(lehmerA) * lehmerA % lehmerM * lehmerA % lehmerM
	for i := range lehmerPow {
		lehmerPow[i] = p
		p = p * cube % lehmerM
	}

	// Draw k (1-based) adds register words feed = 334−k and tap = 607−k
	// (mod 607) and stores the sum in the feed word.  Draws 274–607 add
	// a word that is still as seeded to the output of draw k−273, so they
	// give back words 0–60 and 334–606; draws 1–273 then give 61–333.
	src := rand.NewSource(1).(rand.Source64)
	var out [rngLen + 1]uint64
	for k := 1; k <= rngLen; k++ {
		out[k] = src.Uint64()
	}
	var v [rngLen]uint64
	for k := rngTap + 1; k <= rngLen; k++ {
		v[(rngLen-rngTap-k+rngLen)%rngLen] = out[k] - out[k-rngTap]
	}
	for k := 1; k <= rngTap; k++ {
		v[rngLen-rngTap-k] = out[k] - v[rngLen-k]
	}
	for i := range cooked {
		cooked[i] = int64(v[i]) ^ lehmerWord(1, i)
	}
}

// lehmerWord is the Lehmer half of register word i for a reduced seed.
func lehmerWord(seed uint64, i int) int64 {
	x := seed * lehmerPow[i] % lehmerM
	u := int64(x) << 40
	x = x * lehmerA % lehmerM
	u ^= int64(x) << 20
	x = x * lehmerA % lehmerM
	return u ^ int64(x)
}

// Seed resets the source to the stream of rand.NewSource(seed).
func (s *noiseSource) Seed(seed int64) {
	seed %= lehmerM
	if seed < 0 {
		seed += lehmerM
	}
	if seed == 0 {
		seed = seedZero
	}
	s.seed = uint64(seed)
	s.tap, s.feed, s.n = 0, rngLen-rngTap, 0
}

// Uint64 is math/rand's rngSource.Uint64, seeding each word on first
// read.  Until draw 273 the tap word is fresh, until draw 334 the feed
// word is; every later read finds a word an earlier draw already set.
func (s *noiseSource) Uint64() uint64 {
	s.tap--
	if s.tap < 0 {
		s.tap += rngLen
	}
	s.feed--
	if s.feed < 0 {
		s.feed += rngLen
	}
	if s.n < rngLen-rngTap {
		s.n++
		if s.n <= rngTap {
			s.vec[s.tap] = lehmerWord(s.seed, s.tap) ^ cooked[s.tap]
		}
		s.vec[s.feed] = lehmerWord(s.seed, s.feed) ^ cooked[s.feed]
	}
	x := s.vec[s.feed] + s.vec[s.tap]
	s.vec[s.feed] = x
	return uint64(x)
}

// Int63 is math/rand's rngSource.Int63.
func (s *noiseSource) Int63() int64 { return int64(s.Uint64() & (1<<63 - 1)) }
