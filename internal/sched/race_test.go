//go:build race

package sched

// raceEnabled relaxes allocation assertions when the race detector is on:
// its instrumentation makes testing.AllocsPerRun meaningless.
const raceEnabled = true
