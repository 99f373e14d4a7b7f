//go:build race

package replica

// raceEnabled: the race detector's instrumentation adds allocations, so
// absolute allocation gates skip under -race.
const raceEnabled = true
