package neighbor

import (
	"math"
	"math/rand"
	"testing"
)

// randCoords places n atoms uniformly in [0, ext)³.
func randCoords(rng *rand.Rand, n int, ext float64) []float64 {
	coord := make([]float64, 3*n)
	for i := range coord {
		coord[i] = rng.Float64() * ext
	}
	return coord
}

func equalCSR(t *testing.T, a, b *List, label string) {
	t.Helper()
	if a.n != b.n {
		t.Fatalf("%s: atom counts differ: %d vs %d", label, a.n, b.n)
	}
	for i := 0; i < a.n; i++ {
		ca, cb := a.Candidates(i), b.Candidates(i)
		if len(ca) != len(cb) {
			t.Fatalf("%s: atom %d candidate counts differ: %v vs %v", label, i, ca, cb)
		}
		for k := range ca {
			if ca[k] != cb[k] {
				t.Fatalf("%s: atom %d candidates differ at %d: %v vs %v", label, i, k, ca, cb)
			}
		}
	}
}

// TestCellMatchesBrute is the property test: on random periodic and open
// configurations, the cell-list build must produce exactly the same
// sorted candidate sets as the quadratic reference scan.
func TestCellMatchesBrute(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	cases := []struct {
		n    int
		box  float64 // <= 0 means open boundaries
		rcut float64
		skin float64
	}{
		{n: 8, box: 6, rcut: 2, skin: 0},        // below bruteThreshold
		{n: 40, box: 8, rcut: 2, skin: 0},       // periodic cell grid
		{n: 40, box: 8, rcut: 2, skin: 0.5},     // with skin
		{n: 64, box: 10, rcut: 3, skin: 0.3},    // denser
		{n: 200, box: 14, rcut: 2.5, skin: 0.4}, // many cells
		{n: 40, box: 5, rcut: 2, skin: 0},       // nc < 3 → brute fallback
		{n: 40, box: -1, rcut: 2, skin: 0},      // open boundaries
		{n: 150, box: -1, rcut: 1.5, skin: 0.2}, // open, with skin
		{n: 3, box: 4, rcut: 2, skin: 0},        // tiny
		{n: 0, box: 4, rcut: 2, skin: 0},        // empty
	}
	for _, tc := range cases {
		for rep := 0; rep < 5; rep++ {
			ext := tc.box
			if ext <= 0 {
				ext = 9
			}
			coord := randCoords(rng, tc.n, ext)
			var cell, brute List
			cell.Build(coord, tc.box, tc.rcut, tc.skin)
			brute.BuildBrute(coord, tc.box, tc.rcut, tc.skin)
			equalCSR(t, &cell, &brute, "cell vs brute")
		}
	}
}

// TestCandidatesSorted checks the ascending-order contract that makes a
// cell-list evaluation bit-identical to the brute ascending scan.
func TestCandidatesSorted(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	coord := randCoords(rng, 100, 12)
	var l List
	l.Build(coord, 12, 3, 0.4)
	for i := 0; i < l.N(); i++ {
		c := l.Candidates(i)
		for k := 1; k < len(c); k++ {
			if c[k-1] >= c[k] {
				t.Fatalf("atom %d candidates not strictly ascending: %v", i, c)
			}
		}
	}
}

// TestSkinCoversDisplacement verifies the skin contract: after every atom
// moves by at most skin/2, each pair within rcut at the new coordinates
// is still a candidate of the list built at the old coordinates.
func TestSkinCoversDisplacement(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	const (
		n    = 80
		box  = 10.0
		rcut = 2.5
		skin = 0.6
	)
	for rep := 0; rep < 5; rep++ {
		coord := randCoords(rng, n, box)
		var l List
		l.Build(coord, box, rcut, skin)

		moved := make([]float64, len(coord))
		copy(moved, coord)
		for i := 0; i < n; i++ {
			// Random displacement of length <= skin/2.
			var d [3]float64
			norm := 0.0
			for k := range d {
				d[k] = rng.NormFloat64()
				norm += d[k] * d[k]
			}
			norm = math.Sqrt(norm)
			r := rng.Float64() * skin / 2
			for k := range d {
				moved[3*i+k] += d[k] / norm * r
			}
		}

		isCand := make(map[[2]int]bool)
		for i := 0; i < n; i++ {
			for _, j := range l.Candidates(i) {
				isCand[[2]int{i, j}] = true
			}
		}
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if j == i {
					continue
				}
				if minImageDist2(moved, box, i, j) < rcut*rcut && !isCand[[2]int{i, j}] {
					t.Fatalf("rep %d: pair (%d,%d) within rcut after displacement but not a candidate", rep, i, j)
				}
			}
		}
	}
}

// TestBuildReuse checks that rebuilding on the same List (different sizes,
// different boundary modes) gives the same answer as a fresh List.
func TestBuildReuse(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	var reused List
	configs := []struct {
		n   int
		box float64
	}{{120, 12}, {40, 8}, {200, -1}, {10, 6}, {64, 9}}
	for _, c := range configs {
		ext := c.box
		if ext <= 0 {
			ext = 10
		}
		coord := randCoords(rng, c.n, ext)
		reused.Build(coord, c.box, 2.5, 0.3)
		var fresh List
		fresh.Build(coord, c.box, 2.5, 0.3)
		equalCSR(t, &reused, &fresh, "reused vs fresh")
	}
}

// TestPeriodicPrimitivesMatchInlineExpressions holds MinImage and IntoBox
// bit for bit to the expressions they replaced at every call site: the
// guarded minimum image of the list, the descriptor scan and hpo's
// neighbour count, md's unguarded one for a positive box, and the
// floor-wrap of the list's and md's cell binning.  The inputs are the
// edges: signed zeros, exactly half a box either way, multiples of the
// box, displacements far beyond it, subnormals, non-finite values and
// boxes that are zero or negative.
func TestPeriodicPrimitivesMatchInlineExpressions(t *testing.T) {
	guarded := func(d, box float64) float64 {
		if box > 0 {
			d -= box * math.Round(d/box)
		}
		return d
	}
	unguarded := func(d, box float64) float64 {
		d -= box * math.Round(d/box)
		return d
	}
	floorWrap := func(x, box float64) float64 { return x - box*math.Floor(x/box) }

	negZero := math.Copysign(0, -1)
	tiny := math.SmallestNonzeroFloat64
	for _, box := range []float64{7, 12, 17.84, 0.3, 1e-310, 0, negZero, -12, math.Inf(1)} {
		inputs := []float64{
			0, negZero, box / 2, -box / 2, math.Nextafter(box/2, 0), math.Nextafter(-box/2, 0),
			box, -box, 3 * box, -7 * box, 1e11*box + 0.25, -1e300, 1e300,
			tiny, -tiny, 0x1p-1030, -0x1p-1040, 5.5, -5.5,
			math.Inf(1), math.Inf(-1), math.NaN(),
		}
		for _, x := range inputs {
			if got, want := MinImage(x, box), guarded(x, box); !sameBits(got, want) {
				t.Errorf("MinImage(%v, %v) = %v, inline %v", x, box, got, want)
			}
			if box > 0 {
				if got, want := MinImage(x, box), unguarded(x, box); !sameBits(got, want) {
					t.Errorf("MinImage(%v, %v) = %v, md's inline %v", x, box, got, want)
				}
			}
			if got, want := IntoBox(x, box), floorWrap(x, box); !sameBits(got, want) {
				t.Errorf("IntoBox(%v, %v) = %v, inline %v", x, box, got, want)
			}
		}
	}

	// What the convention is, spelled out.
	for _, c := range []struct {
		name      string
		got, want float64
	}{
		{"MinImage rounds half a box away from zero", MinImage(6, 12), -6},
		{"MinImage rounds minus half a box away from zero", MinImage(-6, 12), 6},
		{"MinImage leaves open boundaries alone", MinImage(1e3, 0), 1e3},
		{"MinImage folds a far image", MinImage(1e3*12+1, 12), 1},
		{"IntoBox wraps from below", IntoBox(-1, 12), 11},
		{"IntoBox maps a multiple of the box to 0", IntoBox(36, 12), 0},
		{"IntoBox returns the box for a small negative x", IntoBox(-1e-300, 12), 12},
		{"IntoBox keeps a negative x whose quotient underflows", IntoBox(-tiny, 12), -tiny},
	} {
		if !sameBits(c.got, c.want) {
			t.Errorf("%s: got %v, want %v", c.name, c.got, c.want)
		}
	}
}

// sameBits reports whether a and b are the same float64 bit for bit.
func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
