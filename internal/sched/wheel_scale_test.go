package sched

import (
	"math/rand"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"wanfd/internal/sim"
)

// checkWheelConsistency validates the invariants the skip-scan relies on:
// every occupancy bit mirrors its slot list's emptiness, the occupied-slot
// counters match the bitmaps, and the queued-timer count matches both the
// list lengths and the node arena's live-record count.
func checkWheelConsistency(t *testing.T, w *Wheel) {
	t.Helper()
	w.mu.Lock()
	defer w.mu.Unlock()
	fineCnt := 0
	for i := range w.fine {
		occ := w.fineOcc[i>>6]&(1<<uint(i&63)) != 0
		if occ != !w.fine[i].Empty() {
			t.Fatalf("fine slot %d: occupancy bit %v but list len %d", i, occ, w.fine[i].Len())
		}
		if occ {
			fineCnt++
		}
	}
	if fineCnt != w.fineCnt {
		t.Fatalf("fineCnt = %d, bitmap has %d occupied slots", w.fineCnt, fineCnt)
	}
	coarseCnt, total := 0, w.due.Len()+w.overflow.Len()
	for i := range w.coarse {
		occ := w.coarseOcc[i>>6]&(1<<uint(i&63)) != 0
		if occ != !w.coarse[i].Empty() {
			t.Fatalf("coarse slot %d: occupancy bit %v but list len %d", i, occ, w.coarse[i].Len())
		}
		if occ {
			coarseCnt++
		}
		total += w.coarse[i].Len()
	}
	if coarseCnt != w.coarseCnt {
		t.Fatalf("coarseCnt = %d, bitmap has %d occupied slots", w.coarseCnt, coarseCnt)
	}
	for i := range w.fine {
		total += w.fine[i].Len()
	}
	if total != w.scheduled {
		t.Fatalf("scheduled = %d, lists hold %d", w.scheduled, total)
	}
	if live := w.nodes.Len(); live != w.scheduled {
		t.Fatalf("scheduled = %d, arena holds %d live nodes", w.scheduled, live)
	}
}

// TestEngineEquivalenceWideGeometry replays the canonical trace — plus
// ops at the far edges of the 2048 × 128 geometry: the last coarse slot,
// a re-arm across the whole span, deadlines several fine windows out — at
// the monitor's 100 µs tick, against the engine's exact heap. The wheel
// must stay bit-identical through the bitmap skip-scan.
func TestEngineEquivalenceWideGeometry(t *testing.T) {
	tick := 100 * time.Microsecond
	const wfs, span = fineSlots, wheelSpan
	ops := append(equivalenceTrace(tick),
		traceOp{label: "wide-fine-edge", delay: wfs * tick},
		traceOp{label: "wide-coarse-a", delay: (wfs + 17) * tick, chain: 3 * tick},
		traceOp{label: "wide-coarse-last", delay: (span - wfs/2) * tick},
		traceOp{label: "wide-coarse-edge", delay: span * tick},
		traceOp{label: "wide-overflow", delay: (span + 999) * tick},
		traceOp{label: "wide-moved", delay: 2 * wfs * tick, rescheduleAt: wfs * tick, rescheduleTo: span * tick},
		traceOp{label: "wide-off-wrap-slot", delay: 3*wfs*tick - 2*tick/5},
		traceOp{label: "wide-off-coarse", delay: (wfs+300)*tick + tick/7, chain: 2*tick + tick/3},
		traceOp{label: "wide-off-overflow", delay: (span+5000)*tick + tick/2},
	)

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
	st := w.Stats()
	if st.Scheduled != 0 {
		t.Errorf("wheel not empty after trace: %+v", st)
	}
	if st.SlotsSkipped == 0 {
		t.Errorf("trace spans multi-segment gaps but no slots were skipped: %+v", st)
	}
	checkWheelConsistency(t, w)
}

// TestCoarseHorizonWrapCascade pins the cascade at the wheel's full-span
// wrap: a deadline exactly at span lands in the last coarse slot and must
// cascade down and fire exactly at span, while a deadline one tick past it
// waits on overflow and fires one tick later.
func TestCoarseHorizonWrapCascade(t *testing.T) {
	tick := 100 * time.Microsecond
	span := time.Duration(wheelSpan) * tick
	eng := sim.NewEngine()
	w := NewWheel(Config{Clock: eng, Tick: tick})

	var fired []fireEntry
	w.AfterFunc(span, func() { fired = append(fired, fireEntry{"at-span", eng.Now()}) })
	w.AfterFunc(span+tick, func() { fired = append(fired, fireEntry{"past-span", eng.Now()}) })
	if st := w.Stats(); st.OverflowTimers != 1 {
		t.Fatalf("want exactly the past-span timer on overflow, stats %+v", st)
	}
	if err := eng.RunAll(); err != nil {
		t.Fatal(err)
	}
	want := []fireEntry{{"at-span", span}, {"past-span", span + tick}}
	if len(fired) != len(want) {
		t.Fatalf("fired %v, want %v", fired, want)
	}
	for i := range want {
		if fired[i] != want[i] {
			t.Errorf("entry %d: got %+v, want %+v", i, fired[i], want[i])
		}
	}
	if st := w.Stats(); st.Cascades == 0 {
		t.Errorf("span-crossing deadlines recorded no cascades: %+v", st)
	}
	checkWheelConsistency(t, w)
}

// TestOverflowDrainOrder schedules deadlines beyond the default wheel's
// ~16.4 s horizon in shuffled insertion order, including a same-instant
// tie: expiry must come in deadline order, ties in schedule order —
// exactly as within the wheel.
func TestOverflowDrainOrder(t *testing.T) {
	tick := time.Millisecond
	eng := sim.NewEngine()
	w := NewWheel(Config{Clock: eng, Tick: tick})

	delays := []struct {
		label string
		d     time.Duration
	}{
		{"over-c", (wheelSpan + 5000) * tick},
		{"over-a", (wheelSpan + 100) * tick},
		{"tie-1", (wheelSpan + 2000) * tick},
		{"tie-2", (wheelSpan + 2000) * tick},
		{"over-d", (3*wheelSpan + 7) * tick},
		{"over-b", (wheelSpan + 1500) * tick},
	}
	var fired []fireEntry
	for _, op := range delays {
		op := op
		w.AfterFunc(op.d, func() { fired = append(fired, fireEntry{op.label, eng.Now()}) })
	}
	if st := w.Stats(); st.OverflowTimers != len(delays) {
		t.Fatalf("all %d deadlines are past the horizon, stats %+v", len(delays), st)
	}
	if err := eng.RunAll(); err != nil {
		t.Fatal(err)
	}
	want := []string{"over-a", "over-b", "tie-1", "tie-2", "over-c", "over-d"}
	if len(fired) != len(want) {
		t.Fatalf("fired %v", fired)
	}
	for i, label := range want {
		if fired[i].label != label {
			t.Errorf("position %d: fired %q, want %q (full: %v)", i, fired[i].label, label, fired)
		}
	}
	for _, f := range fired {
		for _, op := range delays {
			if op.label == f.label && f.at != op.d {
				t.Errorf("%s fired at %v, want %v", f.label, f.at, op.d)
			}
		}
	}
	checkWheelConsistency(t, w)
}

// TestSkippedSlotFIFO jumps the wheel across a long empty stretch in one
// advance and checks the skipped-to slot still fires its timers in
// schedule order, with the skipped ticks showing up in SlotsSkipped.
func TestSkippedSlotFIFO(t *testing.T) {
	tick := time.Millisecond
	eng := sim.NewEngine()
	w := NewWheel(Config{Clock: eng, Tick: tick})

	var fired []string
	for _, label := range []string{"first", "second", "third"} {
		label := label
		w.AfterFunc(200*tick, func() { fired = append(fired, label) })
	}
	if err := eng.RunAll(); err != nil {
		t.Fatal(err)
	}
	if len(fired) != 3 || fired[0] != "first" || fired[1] != "second" || fired[2] != "third" {
		t.Fatalf("FIFO violated in skipped-to slot: %v", fired)
	}
	st := w.Stats()
	if st.SlotsSkipped < 190 {
		t.Errorf("crossing 200 empty ticks skipped only %d slots: %+v", st.SlotsSkipped, st)
	}
	if st.Wakeups > 3 {
		t.Errorf("coalescing should reach one occupied tick in ~1 wakeup, took %d", st.Wakeups)
	}
	checkWheelConsistency(t, w)
}

// TestConcurrentCancelWhileCascading hammers Stop/Reschedule from many
// goroutines against a fast real-clock wheel whose driver is cascading
// concurrently, then verifies the bitmaps, counters, and arena agree with
// the slot lists. Run under -race in CI's churn job.
func TestConcurrentCancelWhileCascading(t *testing.T) {
	clk := sim.NewRealClock()
	// A 2 µs tick shrinks the fine window to ~4 ms and the span to ~0.5 s,
	// so the 150-ms hammer crosses dozens of wrap cascades.
	const tick = 2 * time.Microsecond
	w := NewWheel(Config{Clock: clk, Tick: tick})
	defer w.Close()

	const workers, perWorker = 8, 32
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			timers := make([]Rearmable, perWorker)
			for i := range timers {
				timers[i] = w.NewTimer(func() {})
			}
			deadline := time.Now().Add(150 * time.Millisecond)
			for time.Now().Before(deadline) {
				tm := timers[rng.Intn(perWorker)]
				switch rng.Intn(3) {
				case 0:
					// Fine window: contends with the skip-scan.
					tm.Reschedule(time.Duration(rng.Intn(fineSlots-1)+1) * tick)
				case 1:
					// Coarse/overflow: contends with the cascade walk.
					tm.Reschedule(time.Duration(rng.Intn(wheelSpan)+fineSlots) * tick)
				case 2:
					tm.(*Timer).Stop()
				}
			}
			for _, tm := range timers {
				tm.(*Timer).Stop()
			}
		}()
	}
	wg.Wait()
	checkWheelConsistency(t, w)
	if st := w.Stats(); st.Scheduled != 0 {
		t.Fatalf("all timers stopped but %d still scheduled: %+v", st.Scheduled, st)
	}
}

// TestDenseSlotProperties arms many distinct deadlines inside single ticks
// of a virtual wheel (fixed seed set) and checks the two-visit contract:
// no timer fires before its deadline or after its tick boundary, a slot's
// earliest deadline fires exactly at its instant, a slot is fired from at
// no more than two instants, equal deadlines keep their arming order, and
// — for slots inside the fine window, where no cascade wake-up mixes in —
// the wheel is advanced at most twice per occupied slot.
func TestDenseSlotProperties(t *testing.T) {
	const tick = time.Millisecond
	type armed struct {
		at, firedAt time.Duration
		order       int // position in the global firing sequence
	}
	for seed := int64(1); seed <= 8; seed++ {
		for _, level := range []struct {
			name   string
			lo, hi int64 // slot ticks are drawn from [lo, hi)
			fine   bool
		}{
			{"fine", 2, fineSlots, true},
			{"outer", fineSlots + 1, wheelSpan + 4*fineSlots, false},
		} {
			rng := rand.New(rand.NewSource(seed))
			eng := sim.NewEngine()
			w := NewWheel(Config{Clock: eng, Tick: tick})
			slots := map[int64][]*armed{}
			fired := 0
			for len(slots) < 24 {
				tk := level.lo + rng.Int63n(level.hi-level.lo)
				if slots[tk] != nil {
					continue
				}
				for n := 2 + rng.Intn(40); n > 0; n-- {
					// Offsets in (0, tick]: the boundary itself included,
					// and a small range so that equal deadlines occur.
					a := &armed{at: time.Duration(tk-1)*tick + time.Duration(1+rng.Intn(50))*tick/50, firedAt: -1}
					slots[tk] = append(slots[tk], a)
					w.AfterFunc(a.at, func() { a.firedAt, a.order = eng.Now(), fired; fired++ })
				}
			}
			if err := eng.RunAll(); err != nil {
				t.Fatal(err)
			}
			for tk, as := range slots {
				earliest := as[0]
				instants := map[time.Duration]bool{}
				for i, a := range as {
					if a.firedAt < a.at || a.firedAt > time.Duration(tk)*tick {
						t.Errorf("seed %d %s slot %d: deadline %v fired at %v, want within [deadline, %v]",
							seed, level.name, tk, a.at, a.firedAt, time.Duration(tk)*tick)
					}
					if a.at < earliest.at {
						earliest = a
					}
					instants[a.firedAt] = true
					for _, b := range as[:i] {
						if b.at == a.at && b.order > a.order {
							t.Errorf("seed %d %s slot %d: equal deadlines %v fired out of arming order", seed, level.name, tk, a.at)
						}
					}
				}
				if earliest.firedAt != earliest.at {
					t.Errorf("seed %d %s slot %d: earliest deadline %v fired at %v, want exactly on time",
						seed, level.name, tk, earliest.at, earliest.firedAt)
				}
				if len(instants) > 2 {
					t.Errorf("seed %d %s slot %d: fired at %d distinct instants, want at most 2", seed, level.name, tk, len(instants))
				}
			}
			if st := w.Stats(); level.fine && st.Wakeups > uint64(2*len(slots)) {
				t.Errorf("seed %d: %d wake-ups for %d occupied slots, want at most two each", seed, st.Wakeups, len(slots))
			}
			checkWheelConsistency(t, w)
		}
	}
}

// driverGoroutines counts the goroutines running a wheel driver loop.
func driverGoroutines() int {
	buf := make([]byte, 1<<20)
	return strings.Count(string(buf[:runtime.Stack(buf, true)]), "sched.(*driver).run")
}

// waitDrivers polls until exactly want driver goroutines exist.
func waitDrivers(t *testing.T, want int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for driverGoroutines() != want {
		if time.Now().After(deadline) {
			t.Fatalf("%d driver goroutines, want %d", driverGoroutines(), want)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestSharedDriverLifecycle runs eight real-clock wheels at once, every
// wheel's deadlines sharing that wheel's one driver: no goroutine exists
// before the first arm, one per wheel holding a deadline, none once the
// last deadline has fired or been stopped — and a deadline armed while a
// driver sleeps on a far-off one is not slept through. Run under -race in
// CI.
func TestSharedDriverLifecycle(t *testing.T) {
	waitDrivers(t, 0) // earlier tests' drivers wind down on their own
	wheels := make([]*Wheel, 8)
	for i := range wheels {
		wheels[i] = NewWheel(Config{Clock: sim.NewRealClock(), Tick: time.Millisecond})
	}
	defer func() {
		for _, w := range wheels {
			w.Close()
		}
	}()
	if n := driverGoroutines(); n != 0 {
		t.Fatalf("%d driver goroutines before any timer was armed", n)
	}

	var wg sync.WaitGroup
	for i, w := range wheels {
		wg.Add(1)
		w.AfterFunc(time.Duration(200+i)*time.Millisecond+137*time.Microsecond, wg.Done)
	}
	waitDrivers(t, len(wheels))
	wg.Wait()
	waitDrivers(t, 0)

	// Wheel 5's driver parks on a far-off deadline; a near one armed then
	// must poke it awake.
	far := wheels[5].AfterFunc(time.Hour, func() { t.Error("far-off timer fired") })
	waitDrivers(t, 1)
	near := make(chan struct{})
	wheels[5].AfterFunc(2*time.Millisecond, func() { close(near) })
	select {
	case <-near:
	case <-time.After(5 * time.Second):
		t.Fatal("deadline armed while the driver slept on a far-off one was lost")
	}
	if n := driverGoroutines(); n != 1 {
		t.Fatalf("%d driver goroutines with one deadline left, want 1", n)
	}
	if !far.Stop() {
		t.Fatal("Stop on the queued far-off timer returned false")
	}
	waitDrivers(t, 0)
	for i, w := range wheels {
		if n := w.Stats().Scheduled; n != 0 {
			t.Errorf("wheel %d: %d timers left queued", i, n)
		}
	}
}
