//go:build !race

package wanfd

// raceEnabled relaxes allocation assertions when the race detector is on.
const raceEnabled = false
