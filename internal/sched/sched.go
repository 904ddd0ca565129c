// Package sched centralizes deadline scheduling for the failure-detection
// stack on a hierarchical timing wheel.
//
// Every deadline in the repository — freshness points τ_i, φ-accrual
// crossing instants, heartbeat send grids, fault-injection schedules,
// consensus polls — used to be a private
// Clock.AfterFunc timer: one runtime timer (and a firing goroutine) per
// peer per cycle. At cluster scale that is the dominant hot-path cost: the
// runtime timer heap is O(log n) per re-arm and every expiry spawns a
// goroutine. The Wheel replaces all of that with O(1) schedule, cancel and
// reschedule on intrusive doubly-linked slot lists, and batched slot
// expiry on one goroutine per wheel. Every wheel has one geometry (2048
// fine × 128 coarse slots); only its tick varies.
//
// A tick is a bucket, not a firing clock: a deadline is filed under the
// tick that ends its slot, the slot is visited at the earliest deadline it
// holds and once more at its boundary for whatever that visit left, and
// nothing ever fires early. A deadline with its slot to itself therefore
// fires at its exact instant; one sharing a slot with an earlier deadline
// waits for the boundary, under one tick.
//
// The wheel is a sim.Clock, layered over another sim.Clock: over a
// sim.RealClock its driver goroutine advances it, never past the stamp of a
// delivery still in flight (Config.InFlight); over the virtual
// sim.Engine it schedules its wakeups as engine events. Either way the
// scheduling, cascading and batch-expiry code is identical, so the
// simulated and real executions of the paper's detectors share one code
// path — the same duality the Neko framework gives the protocol layers.
package sched

import (
	"sync"
	"time"

	"wanfd/internal/sim"
)

// TimerSlack delays a freshness-expiry check by one instant past the
// deadline, so an event arriving exactly at the deadline still counts as
// in time. The paper's §2.3 freshness semantics need this: p suspects only
// if no fresh message was received *by* τ, so in the simulator's FIFO
// event order the expiry check must run an instant after τ — otherwise a
// deadline tied with an arrival would suspect first. It is the one shared
// definition; detectors must not re-derive their own slack.
const TimerSlack = time.Nanosecond

// Rearmable is a reusable deadline handle: one allocation per consumer,
// re-armed in place for every new deadline instead of stopping and
// recreating a timer per cycle. On a Wheel, Reschedule is O(1).
type Rearmable interface {
	sim.Timer
	// Reschedule re-arms the timer to fire d from now, replacing any
	// pending deadline. A non-positive d fires as soon as possible. A
	// firing already in flight may still run its callback once; consumers
	// re-check their own deadline state, exactly as they must for the
	// equivalent time.AfterFunc race.
	Reschedule(d time.Duration)
	// RescheduleAt re-arms the timer to fire at the absolute instant at,
	// reusing the caller's already-read clock value now instead of reading
	// the clock again — the batched receive path's amortization: one clock
	// read stamps a whole drain batch and every per-heartbeat re-arm rides
	// on it. An at not after now fires as soon as possible. now must be a
	// reading of this timer's clock; a slightly stale (monotone) reading
	// is safe — the slot and the wake-up derive from at alone, so lag can
	// only delay housekeeping, never fire the timer early.
	RescheduleAt(at, now time.Duration)
}

// DeadlineClock is implemented by clocks with native rearmable timers —
// the Wheel. Consumers should not type-assert it directly; NewTimer hides
// the capability check.
type DeadlineClock interface {
	sim.Clock
	// NewTimer returns an unscheduled rearmable timer firing fn.
	NewTimer(fn func()) Rearmable
}

// NewTimer returns a rearmable timer for fn on any clock: a DeadlineClock
// hands out its native (intrusive, allocation-free to re-arm) timers,
// while any other sim.Clock gets a stop-and-recreate adapter with the same
// shape. Consumers therefore write exactly one code path.
func NewTimer(clk sim.Clock, fn func()) Rearmable {
	if dc, ok := clk.(DeadlineClock); ok {
		return dc.NewTimer(fn)
	}
	return &retimer{clk: clk, fn: fn}
}

// retimer adapts a plain AfterFunc clock to the Rearmable shape by
// stopping and recreating the underlying timer. It serves the clocks that
// are not wheels: the sim.Engine, whose every event fires at its exact
// instant whatever shares its millisecond, and an endpoint's RealClock for
// the sender-side timers (heartbeat grids, interval controllers). Every
// real-network detector deadline runs on a Wheel.
type retimer struct {
	mu  sync.Mutex
	clk sim.Clock
	fn  func()
	t   sim.Timer
}

// Reschedule replaces the pending timer with a fresh one d from now.
func (r *retimer) Reschedule(d time.Duration) {
	r.mu.Lock()
	if r.t != nil {
		r.t.Stop()
	}
	r.t = r.clk.AfterFunc(d, r.fn)
	r.mu.Unlock()
}

// RescheduleAt converts the absolute deadline against the caller's clock
// reading; the stop-and-recreate path has no clock read of its own to save.
func (r *retimer) RescheduleAt(at, now time.Duration) { r.Reschedule(at - now) }

// Stop cancels the pending timer. It reports whether the call prevented a
// firing.
func (r *retimer) Stop() bool {
	r.mu.Lock()
	t := r.t
	r.t = nil
	r.mu.Unlock()
	if t == nil {
		return false
	}
	return t.Stop()
}
