//go:build race

// Package testenv tells tests what kind of build they run in.
package testenv

// Race reports whether the race detector is compiled in: its
// instrumentation adds allocations, so absolute allocation gates skip
// under -race.
const Race = true
