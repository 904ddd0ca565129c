// Package arena mirrors the slab-allocator package's import path. Like
// internal/store — and unlike internal/sched — it is deliberately NOT on
// the clock-boundary exemption list: the arena holds peer records whose
// fields are detector state, so a wall-clock read here could stamp that
// state off the injected sim.Clock's timeline. Generation counters, not
// timestamps, are how the arena tracks slot reuse. clockuse must report
// every seeded read below.
package arena

import "time"

// StampSlot is the kind of clock laundering the sanction list must keep
// out of the allocator: aging a slot by wall clock instead of leaving
// lifecycle questions to the generation stamps.
func StampSlot() time.Duration {
	born := time.Now()      // want a diagnostic here
	return time.Since(born) // want a diagnostic here
}
