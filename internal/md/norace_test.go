//go:build !race

package md

const raceEnabled = false
