//go:build !race

package deepmd

const raceEnabled = false
