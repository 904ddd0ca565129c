// Package store mirrors the durable QoS store's import path. Unlike
// internal/sched it is NOT on the clock-boundary exemption list: every
// instant the store persists is a detector timestamp, so a wall-clock read
// here would silently mix time bases in the durable record. clockuse must
// report every seeded read below.
package store

import "time"

// StampRecord is the kind of clock laundering the sanction list must keep
// out of the store: stamping a persisted record off the wall clock instead
// of the injected sim.Clock.
func StampRecord() time.Duration {
	start := time.Now()      // want a diagnostic here
	return time.Since(start) // want a diagnostic here
}
