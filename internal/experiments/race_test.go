//go:build race

package experiments

// raceEnabled reports that this binary was built with -race, under which
// TestGoldenSearchQuality skips: it is a statistics fence, not a
// concurrency test, and the detector would take it far past its budget.
const raceEnabled = true
