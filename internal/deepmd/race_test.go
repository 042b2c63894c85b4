//go:build race

package deepmd

// raceEnabled reports that this binary was built with -race, under which
// TestGoldenInferenceTiles evaluates only its 20-atom cell.
const raceEnabled = true
