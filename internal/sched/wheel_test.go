package sched

import (
	"math"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"wanfd/internal/sim"
)

// fireLog records (label, instant) pairs in firing order.
type fireLog struct {
	mu      sync.Mutex
	entries []fireEntry
}

type fireEntry struct {
	label string
	at    time.Duration
}

func (l *fireLog) add(label string, at time.Duration) {
	l.mu.Lock()
	l.entries = append(l.entries, fireEntry{label, at})
	l.mu.Unlock()
}

func (l *fireLog) snapshot() []fireEntry {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]fireEntry(nil), l.entries...)
}

// traceOp is one recorded scheduling operation of the equivalence trace.
type traceOp struct {
	label    string
	delay    time.Duration
	cancelAt time.Duration // when positive, stop the timer at this instant
	rescheduleAt,
	rescheduleTo time.Duration // when set, re-arm at rescheduleAt to +rescheduleTo
	chain time.Duration // when positive, the callback schedules a follower at +chain
}

// equivalenceTrace exercises every wheel level: due, fine, fine-boundary,
// coarse, overflow, ties within a slot, cancels, reschedules, and
// callback-driven chains — on tick boundaries, where a slot may be shared,
// and off them (the "off-" ops: fine, coarse, a wrap boundary's own slot,
// overflow, re-armed and chained), where each deadline has its slot to
// itself and so is the slot's earliest. A slot's earliest deadline fires at
// its own instant, so both schedulers must agree to the nanosecond;
// TestDenseSlotProperties covers deadlines that share a slot off-boundary.
func equivalenceTrace(tick time.Duration) []traceOp {
	return []traceOp{
		{label: "off-fine", delay: 3*tick + tick/4},
		{label: "off-coarse", delay: 700*tick + tick/3},
		{label: "off-wrap-slot", delay: 2*fineSlots*tick - 2*tick/5},
		{label: "off-after-wrap", delay: 2*fineSlots*tick + tick/10},
		{label: "off-overflow", delay: (wheelSpan+2000)*tick + 7*tick/9},
		{label: "off-cancelled", delay: 95*tick + tick/3, cancelAt: 50 * tick},
		{label: "off-moved", delay: 20*tick + tick/2, rescheduleAt: 10 * tick, rescheduleTo: 123*tick + 4*tick/9},
		{label: "off-chain", delay: 150*tick + tick/10, chain: 17*tick + tick/20},
		{label: "zero", delay: 0},
		{label: "one-tick", delay: tick},
		{label: "fine-a", delay: 7 * tick},
		{label: "fine-tie-1", delay: 40 * tick},
		{label: "fine-tie-2", delay: 40 * tick},
		{label: "fine-tie-3", delay: 40 * tick},
		{label: "fine-edge", delay: fineSlots * tick},
		{label: "coarse-a", delay: 300 * tick, chain: 5 * tick},
		{label: "coarse-b", delay: (fineSlots + 1) * tick},
		{label: "coarse-edge", delay: wheelSpan * tick},
		{label: "overflow-a", delay: (wheelSpan + 123) * tick},
		{label: "cancelled", delay: 90 * tick, cancelAt: 50 * tick},
		{label: "moved", delay: 60 * tick, rescheduleAt: 30 * tick, rescheduleTo: 500 * tick},
		{label: "chain-root", delay: 11 * tick, chain: 29 * tick},
	}
}

// runTrace replays the trace on clk, scheduling through mk so the same
// script drives the engine heap and the wheel.
func runTrace(t *testing.T, eng *sim.Engine, clk sim.Clock, ops []traceOp) []fireEntry {
	t.Helper()
	log := &fireLog{}
	for _, op := range ops {
		op := op
		var fire func()
		fire = func() {
			log.add(op.label, clk.Now())
			if op.chain > 0 {
				chained := op.label + "/child"
				clk.AfterFunc(op.chain, func() { log.add(chained, clk.Now()) })
			}
		}
		tm := clk.AfterFunc(op.delay, fire)
		if op.cancelAt > 0 {
			eng.At(op.cancelAt, func() { tm.Stop() })
		}
		if op.rescheduleAt > 0 {
			eng.At(op.rescheduleAt, func() {
				if r, ok := tm.(Rearmable); ok {
					r.Reschedule(op.rescheduleTo)
				} else {
					tm.Stop()
					tm = clk.AfterFunc(op.rescheduleTo, fire)
				}
			})
		}
	}
	if err := eng.RunAll(); err != nil {
		t.Fatalf("RunAll: %v", err)
	}
	return log.snapshot()
}

// TestEngineEquivalence replays a recorded trace on the engine's exact
// heap scheduler and on a wheel layered over an identical engine: the
// fire sequences (labels and instants) must match exactly.
func TestEngineEquivalence(t *testing.T) {
	tick := time.Millisecond
	ops := equivalenceTrace(tick)

	heapEng := sim.NewEngine()
	heapLog := runTrace(t, heapEng, heapEng, ops)

	wheelEng := sim.NewEngine()
	w := NewWheel(Config{Clock: wheelEng, Tick: tick})
	wheelLog := runTrace(t, wheelEng, w, ops)

	if len(heapLog) != len(wheelLog) {
		t.Fatalf("heap fired %d, wheel fired %d\nheap:  %v\nwheel: %v",
			len(heapLog), len(wheelLog), heapLog, wheelLog)
	}
	for i := range heapLog {
		if heapLog[i] != wheelLog[i] {
			t.Errorf("entry %d: heap %+v, wheel %+v", i, heapLog[i], wheelLog[i])
		}
	}
	if st := w.Stats(); st.Cascades == 0 {
		t.Errorf("trace spans coarse and overflow levels but recorded no cascades: %+v", st)
	}
	if st := w.Stats(); st.Scheduled != 0 {
		t.Errorf("wheel not empty after trace: %+v", st)
	}
}

// TestZeroAndNegativeDelay schedules non-positive delays on a virtual
// wheel: both must fire at the current instant, not a tick later.
func TestZeroAndNegativeDelay(t *testing.T) {
	eng := sim.NewEngine()
	w := NewWheel(Config{Clock: eng, Tick: time.Millisecond})
	eng.At(5*time.Millisecond, func() {}) // move time forward first
	if err := eng.RunAll(); err != nil {
		t.Fatal(err)
	}
	var fired []time.Duration
	w.AfterFunc(0, func() { fired = append(fired, eng.Now()) })
	w.AfterFunc(-3*time.Second, func() { fired = append(fired, eng.Now()) })
	if err := eng.RunAll(); err != nil {
		t.Fatal(err)
	}
	if len(fired) != 2 {
		t.Fatalf("fired %d timers, want 2", len(fired))
	}
	for i, at := range fired {
		if at != 5*time.Millisecond {
			t.Errorf("timer %d fired at %v, want 5ms (immediately)", i, at)
		}
	}
}

// TestCancelAfterFire pins the Stop contract on both sides of expiry.
func TestCancelAfterFire(t *testing.T) {
	eng := sim.NewEngine()
	w := NewWheel(Config{Clock: eng, Tick: time.Millisecond})
	fired := 0
	tm := w.AfterFunc(10*time.Millisecond, func() { fired++ })
	if err := eng.RunAll(); err != nil {
		t.Fatal(err)
	}
	if fired != 1 {
		t.Fatalf("fired %d, want 1", fired)
	}
	if tm.Stop() {
		t.Error("Stop after fire returned true, want false")
	}

	tm2 := w.AfterFunc(10*time.Millisecond, func() { fired++ })
	if !tm2.Stop() {
		t.Error("Stop before fire returned false, want true")
	}
	if err := eng.RunAll(); err != nil {
		t.Fatal(err)
	}
	if fired != 1 {
		t.Fatalf("stopped timer fired anyway (fired=%d)", fired)
	}
}

// TestRescheduleFromCallback re-arms a timer from inside its own callback
// — the detector's steady-state pattern — and checks the periodic grid.
func TestRescheduleFromCallback(t *testing.T) {
	eng := sim.NewEngine()
	w := NewWheel(Config{Clock: eng, Tick: time.Millisecond})
	var fires []time.Duration
	var tm Rearmable
	tm = w.NewTimer(func() {
		fires = append(fires, eng.Now())
		if len(fires) < 4 {
			tm.Reschedule(10 * time.Millisecond)
		}
	})
	tm.Reschedule(10 * time.Millisecond)
	if err := eng.RunAll(); err != nil {
		t.Fatal(err)
	}
	want := []time.Duration{10 * time.Millisecond, 20 * time.Millisecond, 30 * time.Millisecond, 40 * time.Millisecond}
	if len(fires) != len(want) {
		t.Fatalf("fired %d times (%v), want %d", len(fires), fires, len(want))
	}
	for i := range want {
		if fires[i] != want[i] {
			t.Errorf("fire %d at %v, want %v", i, fires[i], want[i])
		}
	}
}

// TestRescheduleWhileFiring races a Reschedule against a callback in
// flight on the real clock: the timer must fire again at the new
// deadline, and the wheel must end up empty.
func TestRescheduleWhileFiring(t *testing.T) {
	w := NewWheel(Config{Clock: sim.NewRealClock(), Tick: time.Millisecond})
	defer w.Close()
	inFlight := make(chan struct{})
	release := make(chan struct{})
	fires := make(chan struct{}, 8)
	first := true
	var tm Rearmable
	tm = w.NewTimer(func() {
		if first {
			first = false
			inFlight <- struct{}{}
			<-release
		}
		fires <- struct{}{}
	})
	tm.Reschedule(2 * time.Millisecond)
	select {
	case <-inFlight:
	case <-time.NewTimer(5 * time.Second).C:
		t.Fatal("first firing never started")
	}
	// The callback is mid-flight and the timer is unqueued: re-arm it now.
	tm.Reschedule(5 * time.Millisecond)
	close(release)
	for i := 0; i < 2; i++ {
		select {
		case <-fires:
		case <-time.NewTimer(5 * time.Second).C:
			t.Fatalf("saw %d firings, want 2 (original + rescheduled)", i)
		}
	}
	waitWheelEmpty(t, w)
}

// TestCascadeAcrossLevels checks deadline placement beyond the fine
// window: coarse and overflow timers must cascade inward and still fire
// at their exact quantized instants.
func TestCascadeAcrossLevels(t *testing.T) {
	tick := time.Millisecond
	eng := sim.NewEngine()
	w := NewWheel(Config{Clock: eng, Tick: tick})
	coarseDelay := 1000 * tick                // past the 256-tick fine window
	overflowDelay := (wheelSpan + 500) * tick // past the 16384-tick span
	var got []fireEntry
	w.AfterFunc(coarseDelay, func() { got = append(got, fireEntry{"coarse", eng.Now()}) })
	w.AfterFunc(overflowDelay, func() { got = append(got, fireEntry{"overflow", eng.Now()}) })
	if err := eng.RunAll(); err != nil {
		t.Fatal(err)
	}
	want := []fireEntry{{"coarse", coarseDelay}, {"overflow", overflowDelay}}
	if len(got) != len(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("entry %d: got %+v, want %+v", i, got[i], want[i])
		}
	}
	if st := w.Stats(); st.Cascades < 2 {
		t.Errorf("expected cascades from both outer levels, got %+v", st)
	}
}

// TestMaxSlotOccupancyCountsFineSlots arms 100 deadlines on distinct ticks
// inside one coarse span beyond the fine window: they wait together in one
// coarse slot but fire on 100 different ticks, so no firing slot is ever
// shared and the occupancy high-water mark must read 1, not 100.
func TestMaxSlotOccupancyCountsFineSlots(t *testing.T) {
	tick := time.Millisecond
	eng := sim.NewEngine()
	w := NewWheel(Config{Clock: eng, Tick: tick})
	fired := 0
	for i := 0; i < 100; i++ {
		w.AfterFunc(time.Duration(3*fineSlots+10+i)*tick, func() { fired++ })
	}
	if err := eng.RunAll(); err != nil {
		t.Fatal(err)
	}
	if fired != 100 {
		t.Fatalf("%d of 100 deadlines fired", fired)
	}
	if got := w.Stats().MaxSlotOccupancy; got != 1 {
		t.Errorf("MaxSlotOccupancy = %d, want 1: no two deadlines shared a firing tick", got)
	}
}

// TestSameSlotFIFO pins the tie-break: timers expiring in the same slot
// fire in scheduling order, matching the engine's FIFO semantics.
func TestSameSlotFIFO(t *testing.T) {
	eng := sim.NewEngine()
	w := NewWheel(Config{Clock: eng, Tick: time.Millisecond})
	var order []string
	for _, label := range []string{"a", "b", "c", "d"} {
		label := label
		w.AfterFunc(30*time.Millisecond, func() { order = append(order, label) })
	}
	if err := eng.RunAll(); err != nil {
		t.Fatal(err)
	}
	want := "abcd"
	got := ""
	for _, l := range order {
		got += l
	}
	if got != want {
		t.Errorf("same-slot firing order %q, want %q", got, want)
	}
}

// TestCloseCancelsAll closes a wheel with queued timers at every level:
// nothing fires, stats drop to zero, and post-Close scheduling is a no-op.
func TestCloseCancelsAll(t *testing.T) {
	eng := sim.NewEngine()
	w := NewWheel(Config{Clock: eng, Tick: time.Millisecond})
	fired := 0
	w.AfterFunc(0, func() { fired++ })
	w.AfterFunc(5*time.Millisecond, func() { fired++ })
	w.AfterFunc(time.Second, func() { fired++ })
	w.AfterFunc(time.Hour, func() { fired++ })
	w.Close()
	w.AfterFunc(time.Millisecond, func() { fired++ })
	if err := eng.RunAll(); err != nil {
		t.Fatal(err)
	}
	if fired != 0 {
		t.Errorf("%d timers fired after Close, want 0", fired)
	}
	if st := w.Stats(); st.Scheduled != 0 {
		t.Errorf("scheduled %d after Close, want 0", st.Scheduled)
	}
}

// TestRetimerFallback checks NewTimer's adapter path on a clock without
// native rearmable timers (the raw engine): same observable behaviour.
func TestRetimerFallback(t *testing.T) {
	eng := sim.NewEngine()
	var fires []time.Duration
	tm := NewTimer(eng, func() { fires = append(fires, eng.Now()) })
	if _, isWheel := tm.(*Timer); isWheel {
		t.Fatal("expected the stop-and-recreate adapter, got a wheel timer")
	}
	tm.Reschedule(10 * time.Millisecond)
	tm.Reschedule(25 * time.Millisecond) // replaces the pending deadline
	if err := eng.RunAll(); err != nil {
		t.Fatal(err)
	}
	if len(fires) != 1 || fires[0] != 25*time.Millisecond {
		t.Fatalf("fires = %v, want exactly one at 25ms", fires)
	}
	tm.Reschedule(time.Millisecond)
	if !tm.Stop() {
		t.Error("Stop on armed retimer returned false")
	}
	if err := eng.RunAll(); err != nil {
		t.Fatal(err)
	}
	if len(fires) != 1 {
		t.Fatalf("stopped retimer fired: %v", fires)
	}
}

// TestWheelTimerViaNewTimer checks the DeadlineClock fast path hands out
// native wheel timers.
func TestWheelTimerViaNewTimer(t *testing.T) {
	eng := sim.NewEngine()
	w := NewWheel(Config{Clock: eng, Tick: time.Millisecond})
	tm := NewTimer(w, func() {})
	if _, isWheel := tm.(*Timer); !isWheel {
		t.Fatalf("NewTimer over a wheel returned %T, want *Timer", tm)
	}
}

// driverRunning reports whether the wheel's driver goroutine exists.
func driverRunning(w *Wheel) bool {
	w.drv.mu.Lock()
	defer w.drv.mu.Unlock()
	return w.drv.running
}

// waitWheelEmpty polls until no timers remain and the real-mode driver
// has parked, failing the test after a generous deadline.
func waitWheelEmpty(t *testing.T, w *Wheel) {
	t.Helper()
	deadline := time.NewTimer(5 * time.Second)
	defer deadline.Stop()
	for {
		if w.Stats().Scheduled == 0 && !driverRunning(w) {
			return
		}
		select {
		case <-deadline.C:
			st := w.Stats()
			t.Fatalf("wheel never went idle: %+v", st)
		case <-time.NewTimer(5 * time.Millisecond).C:
		}
	}
}

// TestRealDriverLifecycle checks the lazy driver: it does not exist
// before the first timer, runs while timers are queued, and exits when
// the wheel empties — including via Stop of the last timer.
func TestRealDriverLifecycle(t *testing.T) {
	w := NewWheel(Config{Clock: sim.NewRealClock(), Tick: time.Millisecond})
	defer w.Close()
	if driverRunning(w) {
		t.Fatal("driver running before any timer was scheduled")
	}

	fired := make(chan struct{})
	w.AfterFunc(3*time.Millisecond, func() { close(fired) })
	select {
	case <-fired:
	case <-time.NewTimer(5 * time.Second).C:
		t.Fatal("timer never fired on the real driver")
	}
	waitWheelEmpty(t, w)

	// A far-future timer parks the driver; stopping it must wake the
	// driver so it exits instead of sleeping out the hour.
	tm := w.AfterFunc(time.Hour, func() { t.Error("far-future timer fired") })
	if !tm.Stop() {
		t.Fatal("Stop on queued far-future timer returned false")
	}
	waitWheelEmpty(t, w)
}

// TestRealClockSteadyReschedule drives the detector's hot pattern on the
// wall clock: many timers continuously re-armed before expiry, with the
// driver surviving the churn and the wheel draining afterwards.
func TestRealClockSteadyReschedule(t *testing.T) {
	w := NewWheel(Config{Clock: sim.NewRealClock(), Tick: time.Millisecond})
	defer w.Close()
	const n = 32
	timers := make([]Rearmable, n)
	for i := range timers {
		timers[i] = w.NewTimer(func() {})
	}
	for round := 0; round < 50; round++ {
		for _, tm := range timers {
			tm.Reschedule(time.Second)
		}
	}
	if st := w.Stats(); st.Scheduled != n {
		t.Fatalf("scheduled %d after reschedule storm, want %d", st.Scheduled, n)
	}
	for _, tm := range timers {
		tm.Stop()
	}
	waitWheelEmpty(t, w)
}

// TestRescheduleAt pins the batched-ingest re-arm contract: the firing
// tick derives from the absolute deadline alone, so a stale (but
// monotone) caller-supplied now can never fire the timer early, and a
// fresh now places the deadline exactly.
func TestRescheduleAt(t *testing.T) {
	eng := sim.NewEngine()
	w := NewWheel(Config{Clock: eng, Tick: time.Millisecond})
	var fires []time.Duration
	var tm Rearmable = w.NewTimer(func() { fires = append(fires, eng.Now()) })

	// Fresh now: exact placement at the absolute deadline.
	tm.RescheduleAt(10*time.Millisecond, eng.Now())
	// Mid-flight re-arm with a stale now (the batch stamp read at t=0):
	// the timer must move to exactly 25ms, not 25ms-minus-staleness.
	eng.At(4*time.Millisecond, func() { tm.RescheduleAt(25*time.Millisecond, 0) })
	if err := eng.RunAll(); err != nil {
		t.Fatal(err)
	}
	if len(fires) != 1 || fires[0] != 25*time.Millisecond {
		t.Fatalf("fires = %v, want exactly one at 25ms", fires)
	}

	// A deadline already in the past (clamped to now) fires on the next
	// advance rather than being lost or going backwards.
	fires = nil
	eng.At(40*time.Millisecond, func() { tm.RescheduleAt(30*time.Millisecond, 40*time.Millisecond) })
	if err := eng.RunAll(); err != nil {
		t.Fatal(err)
	}
	if len(fires) != 1 || fires[0] < 40*time.Millisecond {
		t.Fatalf("past-deadline fires = %v, want one at >= 40ms", fires)
	}

	// The stop-and-recreate adapter honours the same signature.
	var rfires []time.Duration
	rt := NewTimer(eng, func() { rfires = append(rfires, eng.Now()) })
	eng.At(60*time.Millisecond, func() { rt.RescheduleAt(75*time.Millisecond, 60*time.Millisecond) })
	if err := eng.RunAll(); err != nil {
		t.Fatal(err)
	}
	if len(rfires) != 1 || rfires[0] != 75*time.Millisecond {
		t.Fatalf("retimer fires = %v, want exactly one at 75ms", rfires)
	}
}

// TestInFlightHoldsExpiry pins the real-clock driver's hold: while a
// delivery stamped before a deadline is in flight the deadline does not
// fire, it fires once the delivery ends, and a delivery stuck for good
// holds it back no longer than MaxHold.
func TestInFlightHoldsExpiry(t *testing.T) {
	clk := sim.NewRealClock()
	var stamp atomic.Int64
	stamp.Store(math.MaxInt64)
	w := NewWheel(Config{Clock: clk, Tick: 100 * time.Microsecond,
		InFlight: func() time.Duration { return time.Duration(stamp.Load()) }})
	defer w.Close()

	fired := make(chan time.Duration, 1)
	stamp.Store(int64(clk.Now()))
	w.AfterFunc(2*time.Millisecond, func() { fired <- clk.Now() })
	select {
	case at := <-fired:
		t.Fatalf("deadline fired at %v while a delivery stamped before it was in flight", at)
	case <-time.After(30 * time.Millisecond):
	}
	stamp.Store(math.MaxInt64)
	select {
	case <-fired:
	case <-time.After(5 * time.Second):
		t.Fatal("deadline never fired after the delivery ended")
	}

	held := clk.Now()
	stamp.Store(int64(held))
	w.AfterFunc(2*time.Millisecond, func() { fired <- clk.Now() })
	select {
	case at := <-fired:
		if at-held < MaxHold {
			t.Errorf("deadline fired %v after a stuck delivery's stamp, want at least MaxHold (%v)", at-held, MaxHold)
		}
	case <-time.After(MaxHold + 5*time.Second):
		t.Fatal("a stuck delivery held expiry back past MaxHold")
	}
	waitWheelEmpty(t, w)
}
