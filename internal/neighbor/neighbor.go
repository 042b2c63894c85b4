// Package neighbor owns the periodic convention of the cubic cell and
// builds linked-cell neighbor candidate lists for the descriptor and
// model hot paths.  MinImage and IntoBox are the one place the
// minimum-image displacement and the wrap into the box are written: the
// list, the descriptor, hpo and md all use them.  One image per pair is
// taken, which is exact while the cutoff is at most half the box.
//
// A List is constructed once per configuration in O(n) (cell binning)
// instead of the O(n²) per-center scan the descriptor used to do, and a
// skin radius lets one list serve several slightly displaced evaluations
// of the same configuration — exactly the pattern of the training loop,
// where each frame is evaluated at x and at x ± h·v̂ for the force-loss
// directional derivative.
//
// Candidates are a superset of the true neighbors: every pair whose
// minimum-image distance is below RCut+Skin at build time.  Consumers
// re-measure distances against the coordinates they are given, so results
// are exact as long as no atom moves farther than Skin/2 from its build
// position.  Candidate lists are sorted by atom index, which makes a
// cell-list evaluation bit-identical to the brute-force ascending scan it
// replaces.
package neighbor

import (
	"math"
	"slices"
)

// MinImage returns the minimum image d − box·round(d/box) of displacement
// d along one axis; box <= 0 means open boundaries and returns d as is.
func MinImage(d, box float64) float64 {
	if box > 0 {
		d -= box * math.Round(d/box)
	}
	return d
}

// IntoBox wraps coordinate x into [0, box) as x − box·floor(x/box), for
// box > 0.  Roundoff can return box for an x just below zero, and an x so
// small that x/box underflows comes back as it is; binning must clamp.
func IntoBox(x, box float64) float64 {
	return x - box*math.Floor(x/box)
}

// List is a reusable neighbor candidate list in CSR layout: atom i's
// candidates are Idx[Offsets[i]:Offsets[i+1]].  Build may be called
// repeatedly on the same List; internal buffers are reused.
type List struct {
	RCut float64 // hard cutoff the consumer will apply
	Skin float64 // extra candidate radius for displacement tolerance

	n       int
	offsets []int
	idx     []int

	// build scratch, reused across Build calls
	head []int
	next []int
	cell []int
}

// N returns the number of atoms the list was built for.
func (l *List) N() int { return l.n }

// Candidates returns atom i's candidate neighbors in ascending index
// order.  The slice aliases list storage; do not mutate or retain across
// Build calls.
func (l *List) Candidates(i int) []int {
	return l.idx[l.offsets[i]:l.offsets[i+1]]
}

// bruteThreshold: below this many atoms a cell grid costs more than the
// quadratic scan it avoids.
const bruteThreshold = 32

// Build constructs the candidate list for flat atom-major coordinates.
// box > 0 selects a cubic periodic cell with minimum-image distances (the
// same convention the descriptor applies); box <= 0 is open boundaries.
func (l *List) Build(coord []float64, box float64, rcut, skin float64) {
	reach := l.reset(coord, rcut, skin)
	nc := int(box / reach) // periodic cells per side
	switch {
	case l.n < bruteThreshold:
		l.buildBruteInto(coord, box, reach)
	case box <= 0:
		l.buildOpen(coord, reach)
	case nc < 3:
		// Cells would wrap onto themselves; the quadratic scan is
		// exact and the box is small anyway.
		l.buildBruteInto(coord, box, reach)
	default:
		l.buildPeriodic(coord, box, reach, nc)
	}
}

// BuildBrute constructs the same candidate list with the O(n²) scan,
// bypassing the cell grid.  It exists so tests and verification can
// compare the two strategies on identical inputs.
func (l *List) BuildBrute(coord []float64, box float64, rcut, skin float64) {
	l.buildBruteInto(coord, box, l.reset(coord, rcut, skin))
}

// reset sizes the list for coord and returns the candidate reach
// rcut + skin, a negative skin counting as zero.
func (l *List) reset(coord []float64, rcut, skin float64) float64 {
	if skin < 0 {
		skin = 0
	}
	l.RCut, l.Skin = rcut, skin
	l.n = len(coord) / 3
	l.offsets = growInts(l.offsets, l.n+1)
	l.idx = l.idx[:0]
	return rcut + skin
}

func (l *List) buildBruteInto(coord []float64, box float64, reach float64) {
	reach2 := reach * reach
	for i := 0; i < l.n; i++ {
		l.offsets[i] = len(l.idx)
		for j := 0; j < l.n; j++ {
			if j == i {
				continue
			}
			if minImageDist2(coord, box, i, j) < reach2 {
				l.idx = append(l.idx, j)
			}
		}
	}
	l.offsets[l.n] = len(l.idx)
}

func (l *List) buildPeriodic(coord []float64, box, reach float64, nc int) {
	cs := box / float64(nc) // >= reach by construction
	l.head = growInts(l.head, nc*nc*nc)
	for c := range l.head {
		l.head[c] = -1
	}
	l.next = growInts(l.next, l.n)
	l.cell = growInts(l.cell, 3*l.n)

	// Bin atoms by wrapped position.  Linked lists are filled in reverse
	// so each cell's chain comes out in ascending atom order (not that
	// order matters: candidates are sorted below).
	for i := l.n - 1; i >= 0; i-- {
		var c [3]int
		for k := 0; k < 3; k++ {
			ck := int(IntoBox(coord[3*i+k], box) / cs)
			if ck >= nc { // IntoBox returned box after roundoff
				ck = nc - 1
			}
			c[k] = ck
			l.cell[3*i+k] = ck
		}
		idx := (c[0]*nc+c[1])*nc + c[2]
		l.next[i] = l.head[idx]
		l.head[idx] = i
	}

	reach2 := reach * reach
	for i := 0; i < l.n; i++ {
		l.offsets[i] = len(l.idx)
		start := len(l.idx)
		ci := l.cell[3*i : 3*i+3]
		for dx := -1; dx <= 1; dx++ {
			cx := wrapCell(ci[0]+dx, nc)
			for dy := -1; dy <= 1; dy++ {
				cy := wrapCell(ci[1]+dy, nc)
				for dz := -1; dz <= 1; dz++ {
					cz := wrapCell(ci[2]+dz, nc)
					for j := l.head[(cx*nc+cy)*nc+cz]; j >= 0; j = l.next[j] {
						if j == i {
							continue
						}
						if minImageDist2(coord, box, i, j) < reach2 {
							l.idx = append(l.idx, j)
						}
					}
				}
			}
		}
		slices.Sort(l.idx[start:])
	}
	l.offsets[l.n] = len(l.idx)
}

func (l *List) buildOpen(coord []float64, reach float64) {
	var lo, hi [3]float64
	for k := 0; k < 3; k++ {
		lo[k], hi[k] = coord[k], coord[k]
	}
	for i := 1; i < l.n; i++ {
		for k := 0; k < 3; k++ {
			v := coord[3*i+k]
			if v < lo[k] {
				lo[k] = v
			}
			if v > hi[k] {
				hi[k] = v
			}
		}
	}
	var nc [3]int
	var cs [3]float64
	cells := 1
	for k := 0; k < 3; k++ {
		ext := hi[k] - lo[k]
		nc[k] = int(ext / reach)
		if nc[k] < 1 {
			nc[k] = 1
		}
		cs[k] = ext / float64(nc[k])
		if cs[k] <= 0 {
			cs[k] = 1 // degenerate axis: everything lands in cell 0
		}
		cells *= nc[k]
	}
	l.head = growInts(l.head, cells)
	for c := range l.head {
		l.head[c] = -1
	}
	l.next = growInts(l.next, l.n)
	l.cell = growInts(l.cell, 3*l.n)
	for i := l.n - 1; i >= 0; i-- {
		var c [3]int
		for k := 0; k < 3; k++ {
			ck := int((coord[3*i+k] - lo[k]) / cs[k])
			if ck >= nc[k] {
				ck = nc[k] - 1
			}
			c[k] = ck
			l.cell[3*i+k] = ck
		}
		idx := (c[0]*nc[1]+c[1])*nc[2] + c[2]
		l.next[i] = l.head[idx]
		l.head[idx] = i
	}

	reach2 := reach * reach
	for i := 0; i < l.n; i++ {
		l.offsets[i] = len(l.idx)
		start := len(l.idx)
		ci := l.cell[3*i : 3*i+3]
		for cx := max(ci[0]-1, 0); cx <= min(ci[0]+1, nc[0]-1); cx++ {
			for cy := max(ci[1]-1, 0); cy <= min(ci[1]+1, nc[1]-1); cy++ {
				for cz := max(ci[2]-1, 0); cz <= min(ci[2]+1, nc[2]-1); cz++ {
					for j := l.head[(cx*nc[1]+cy)*nc[2]+cz]; j >= 0; j = l.next[j] {
						if j == i {
							continue
						}
						if dist2(coord, i, j) < reach2 {
							l.idx = append(l.idx, j)
						}
					}
				}
			}
		}
		slices.Sort(l.idx[start:])
	}
	l.offsets[l.n] = len(l.idx)
}

// minImageDist2 returns the squared minimum-image distance between atoms
// i and j, through the MinImage consumers re-measure with, so candidate
// membership agrees with what they see.
func minImageDist2(coord []float64, box float64, i, j int) float64 {
	r2 := 0.0
	for k := 0; k < 3; k++ {
		dk := MinImage(coord[3*j+k]-coord[3*i+k], box)
		r2 += dk * dk
	}
	return r2
}

func dist2(coord []float64, i, j int) float64 {
	r2 := 0.0
	for k := 0; k < 3; k++ {
		dk := coord[3*j+k] - coord[3*i+k]
		r2 += dk * dk
	}
	return r2
}

func wrapCell(c, nc int) int {
	if c < 0 {
		return c + nc
	}
	if c >= nc {
		return c - nc
	}
	return c
}

func growInts(buf []int, n int) []int {
	if cap(buf) < n {
		return make([]int, n)
	}
	return buf[:n]
}
