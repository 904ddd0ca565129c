//go:build !race

package sched

// raceEnabled relaxes allocation assertions when the race detector is on.
const raceEnabled = false
