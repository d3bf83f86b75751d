//go:build race

package bfv

// raceEnabled reports a -race build, whose detector randomly drops
// sync.Pool puts and so inflates allocation counts.
const raceEnabled = true
