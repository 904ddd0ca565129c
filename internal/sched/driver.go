package sched

import (
	"sync"
	"sync/atomic"
	"time"

	"wanfd/internal/sim"
)

// driver is the one real-clock expiry goroutine of a NewWheels set. It is
// started by the first armed deadline, sleeps on one reusable timer until
// the earliest instant any of its wheels asked for, advances only the
// wheels that are due, and exits once every wheel is empty. Callbacks of
// all its wheels run on it, one at a time.
type driver struct {
	clk    sim.Clock
	wheels []*Wheel // fixed at construction

	// sleepAt is the instant the goroutine sleeps until: noWake while none
	// runs (or it is about to exit), zero while it is awake. A wheel asked
	// for an earlier instant pokes; one asking while the driver is awake
	// need not, because run re-reads every wheel after publishing sleepAt.
	sleepAt atomic.Int64
	kick    chan struct{}

	mu      sync.Mutex // orders goroutine start against exit
	running bool
	timer   *time.Timer // owned by the running goroutine
}

// poke interrupts the driver's sleep so that it re-reads its wheels. With
// start set it launches the goroutine if none is running. A goroutine seen
// running cannot exit past the caller's request: it stored that before
// poking, and run decides to exit under mu against the requests stored. A
// token left behind by one that exits anyway costs the next a spurious pass.
func (d *driver) poke(start bool) {
	d.mu.Lock()
	running := d.running
	if !running && start {
		d.running = true
		go d.run()
	}
	d.mu.Unlock()
	if running {
		select {
		case d.kick <- struct{}{}:
		default:
		}
	}
}

// earliest returns the earliest instant any wheel has asked for.
func (d *driver) earliest() time.Duration {
	next := noWake
	for _, w := range d.wheels {
		if at := time.Duration(w.wakeAt.Load()); at < next {
			next = at
		}
	}
	return next
}

func (d *driver) run() {
	for {
		d.sleepAt.Store(0)
		now := d.clk.Now()
		for _, w := range d.wheels {
			if time.Duration(w.wakeAt.Load()) <= now {
				w.advance()
			}
		}
		next := d.earliest()
		// Publish the target, then look once more: a wheel armed since it
		// was read either sees the new target and pokes, or stored its
		// request before this second read (sequentially consistent
		// atomics), so no request is slept through.
		d.sleepAt.Store(int64(next))
		if d.earliest() < next {
			continue
		}
		if next == noWake {
			// An arm that finds sleepAt at noWake takes mu to poke; decide
			// under it, against the requests stored by then.
			d.mu.Lock()
			d.running = d.earliest() != noWake
			running := d.running
			d.mu.Unlock()
			if !running {
				return
			}
			continue
		}
		if dur := next - d.clk.Now(); dur > 0 {
			d.sleep(dur)
		}
	}
}

// sleep parks the goroutine for dur or until poked.
func (d *driver) sleep(dur time.Duration) {
	if d.timer == nil {
		d.timer = time.NewTimer(dur)
	} else {
		d.timer.Reset(dur)
	}
	select {
	case <-d.timer.C:
	case <-d.kick:
		if !d.timer.Stop() {
			// Already fired: take the value so the next Reset starts clean.
			select {
			case <-d.timer.C:
			default:
			}
		}
	}
}
