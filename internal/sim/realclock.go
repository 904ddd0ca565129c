package sim

import (
	"sync"
	"time"
)

// RealClock implements Clock on top of the wall clock, measuring elapsed
// time from its creation. It is safe for concurrent use and is the clock
// used when the protocol stack runs on a real network.
type RealClock struct {
	start time.Time
}

// NewRealClock returns a RealClock whose epoch is the moment of the call.
func NewRealClock() *RealClock {
	return &RealClock{start: time.Now()}
}

var _ Clock = (*RealClock)(nil)

// Now returns the wall-clock time elapsed since the clock was created.
func (c *RealClock) Now() time.Duration { return time.Since(c.start) }

// At converts an absolute wall-clock instant into this clock's time base:
// the duration from the clock's epoch to t. Instants before the epoch
// yield negative durations.
func (c *RealClock) At(t time.Time) time.Duration { return t.Sub(c.start) }

// Epoch returns the wall-clock instant this clock measures from.
func (c *RealClock) Epoch() time.Time { return c.start }

// WallTime maps the clock's current reading back to an absolute
// wall-clock instant. It is the one sanctioned bridge for code that must
// produce human-readable timestamps or on-the-wire Unix times.
func (c *RealClock) WallTime() time.Time { return c.start.Add(c.Now()) }

// AfterFunc schedules fn on a real timer.
func (c *RealClock) AfterFunc(d time.Duration, fn func()) Timer {
	if d < 0 {
		d = 0
	}
	return &realTimer{t: time.AfterFunc(d, fn)}
}

type realTimer struct {
	mu sync.Mutex
	t  *time.Timer
}

func (r *realTimer) Stop() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.t.Stop()
}
