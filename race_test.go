//go:build race

package wanfd

// raceEnabled relaxes allocation assertions when the race detector is on:
// its instrumentation makes testing.AllocsPerRun meaningless.
const raceEnabled = true
