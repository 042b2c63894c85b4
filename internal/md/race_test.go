//go:build race

package md

// raceEnabled reports that this binary was built with -race, under which
// the trajectory tests skip (see skipTrajectoryUnderRace).
const raceEnabled = true
