//go:build race

package refcheck

// raceEnabled reports that this binary was built with -race, under which
// TestGoldenPaperNetBits trains two of its twenty configurations.
const raceEnabled = true
