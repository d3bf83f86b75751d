//go:build race

package harness

// raceEnabled reports a -race build, whose detector instruments every
// atomic and mutex operation of the trace record path but none of the
// assembly search kernel, so it inflates the one side of
// TestTraceOverheadBudget's ratio far more than the other.
const raceEnabled = true
