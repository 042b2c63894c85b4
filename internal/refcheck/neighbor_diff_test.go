package refcheck

import (
	"math/rand"
	"testing"

	"repro/internal/neighbor"
)

// randConfiguration draws a random atomic configuration.  Periodic
// instances deliberately place some atoms exactly on cell boundaries —
// at 0, at the box edge, on multiples of the cell size, and outside the
// primary cell (negative or > box, exercising the wrap) — the corners
// where a cell-list implementation is most likely to disagree with the
// definition.
func randConfiguration(rng *rand.Rand, n int, box float64, reach float64) []float64 {
	coord := make([]float64, 3*n)
	for k := range coord {
		coord[k] = (rng.Float64()*2 - 0.5) * box // spills outside [0, box)
	}
	if box > 0 {
		nc := int(box / reach)
		if nc < 1 {
			nc = 1
		}
		cell := box / float64(nc)
		for i := 0; i < n; i++ {
			switch rng.Intn(5) {
			case 0:
				coord[3*i+rng.Intn(3)] = 0
			case 1:
				coord[3*i+rng.Intn(3)] = box
			case 2:
				coord[3*i+rng.Intn(3)] = cell * float64(rng.Intn(nc+1))
			case 3:
				coord[3*i+rng.Intn(3)] = -cell * rng.Float64()
				// case 4: leave the uniform draw.
			}
		}
	}
	return coord
}

// TestNeighborListMatchesAllPairsOracle cross-checks the production
// linked-cell candidate lists (and the production brute path) against
// the independent all-pairs scan over hundreds of random instances:
// open and periodic boundaries, sizes straddling the brute/cell
// threshold, and boxes small enough to force the wrap-degenerate brute
// fallback.  Candidate lists must match index-for-index.
func TestNeighborListMatchesAllPairsOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(301))
	var list, brute neighbor.List
	const instances = 220
	for trial := 0; trial < instances; trial++ {
		n := 1 + rng.Intn(150) // below and above the cell-grid threshold
		var box float64
		if rng.Intn(4) > 0 {
			box = 4 + rng.Float64()*12 // some boxes force nc < 3
		}
		rcut := 0.5 + rng.Float64()*2.5
		skin := 0.0
		if rng.Intn(2) == 0 {
			skin = rng.Float64() * 0.5
		}
		coord := randConfiguration(rng, n, box, rcut+skin)

		want := AllPairsCandidates(coord, box, rcut, skin)
		list.Build(coord, box, rcut, skin)
		brute.BuildBrute(coord, box, rcut, skin)
		for name, l := range map[string]*neighbor.List{"Build": &list, "BuildBrute": &brute} {
			if l.N() != n {
				t.Fatalf("trial %d: %s N = %d, want %d", trial, name, l.N(), n)
			}
			for i := 0; i < n; i++ {
				got := l.Candidates(i)
				if len(got) != len(want[i]) {
					t.Fatalf("trial %d (n=%d box=%g rcut=%g skin=%g): %s atom %d has %d candidates, oracle %d\n got  %v\n want %v",
						trial, n, box, rcut, skin, name, i, len(got), len(want[i]), got, want[i])
				}
				for k := range got {
					if got[k] != want[i][k] {
						t.Fatalf("trial %d: %s atom %d candidate[%d] = %d, oracle %d",
							trial, name, i, k, got[k], want[i][k])
					}
				}
			}
		}
	}
}

// TestNeighborListReuseMatchesOracle rebuilds one List across many
// configurations (the training loop's reuse pattern) and checks each
// rebuild against the oracle — stale state from a previous, larger build
// must never leak into a smaller one.
func TestNeighborListReuseMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(302))
	var list neighbor.List
	sizes := []int{120, 7, 64, 1, 33, 90, 2, 50}
	for trial, n := range sizes {
		box := 6 + rng.Float64()*6
		rcut := 1 + rng.Float64()
		coord := randConfiguration(rng, n, box, rcut)
		want := AllPairsCandidates(coord, box, rcut, 0)
		list.Build(coord, box, rcut, 0)
		for i := 0; i < n; i++ {
			got := list.Candidates(i)
			if len(got) != len(want[i]) {
				t.Fatalf("rebuild %d (n=%d): atom %d has %d candidates, oracle %d",
					trial, n, i, len(got), len(want[i]))
			}
			for k := range got {
				if got[k] != want[i][k] {
					t.Fatalf("rebuild %d (n=%d): atom %d candidate[%d] = %d, oracle %d",
						trial, n, i, k, got[k], want[i][k])
				}
			}
		}
	}
}
