//go:build !race

package bfv

const raceEnabled = false
