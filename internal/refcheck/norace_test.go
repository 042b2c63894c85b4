//go:build !race

package refcheck

const raceEnabled = false
