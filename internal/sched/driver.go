package sched

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"wanfd/internal/sim"
)

// driver is a real-clock wheel's expiry goroutine. It is started by the
// first armed deadline, sleeps on one reusable timer until the instant the
// wheel asked for, advances it, and exits once the wheel is empty. The
// wheel's callbacks run on it, one at a time.
type driver struct {
	clk sim.Clock
	w   *Wheel

	// sleepAt is the instant the goroutine sleeps until: noWake while none
	// runs (or it is about to exit), zero while it is awake. A request for
	// an earlier instant pokes; one made while the driver is awake need
	// not, because run re-reads the wheel after publishing sleepAt.
	sleepAt atomic.Int64
	kick    chan struct{}

	mu      sync.Mutex // orders goroutine start against exit
	running bool
	timer   *time.Timer // owned by the running goroutine
}

// poke interrupts the driver's sleep so that it re-reads the wheel. With
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

func (d *driver) run() {
	w := d.w
	for {
		d.sleepAt.Store(0)
		if time.Duration(w.wakeAt.Load()) <= d.clk.Now() {
			if held := w.step(); held != noWake {
				d.await(held)
				continue
			}
		}
		next := time.Duration(w.wakeAt.Load())
		// Publish the target, then look once more: a deadline armed since
		// the read either sees the new target and pokes, or stored its
		// request before this second read (sequentially consistent
		// atomics), so no request is slept through.
		d.sleepAt.Store(int64(next))
		if time.Duration(w.wakeAt.Load()) < next {
			continue
		}
		if next == noWake {
			// An arm that finds sleepAt at noWake takes mu to poke; decide
			// under it, against the requests stored by then.
			d.mu.Lock()
			d.running = time.Duration(w.wakeAt.Load()) != noWake
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

// holdSpin is how long the driver yields, rather than sleeps, while a
// delivery in flight holds a due deadline back: a drain batch is delivered
// in microseconds, and a tick's sleep can cost the runtime's millisecond.
const holdSpin = 50 * time.Microsecond

// await waits until the delivery stamped held is no longer the earliest in
// flight, yielding while it is younger than holdSpin and sleeping one tick
// once it is not; the caller then steps the wheel again.
func (d *driver) await(held time.Duration) {
	for d.w.inFlight() == held {
		if d.clk.Now()-held > holdSpin {
			d.sleep(d.w.tick)
			return
		}
		runtime.Gosched()
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
