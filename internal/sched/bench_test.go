package sched

import (
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"wanfd/internal/sim"
)

// The two expiry shapes on the wheel's geometry with a 1 ms tick: dispatch
// re-arms inside the fine window (2048 ticks), so every
// deadline is placed and fired at the fine level; cascade re-arms past it,
// so every deadline is placed coarse and must cascade down before firing —
// the wrap-walk cost the occupancy bitmaps bound.
var expiryShapes = []struct {
	name   string
	period time.Duration
}{
	{"dispatch", 800 * time.Millisecond},
	{"cascade", 5 * time.Second},
}

// armSelfRearming builds a wheel over a fresh virtual engine and arms
// `armed` deadlines that each re-arm one period ahead when they fire — one
// per monitored peer, the paper's §2.3 freshness-point shape. Initial
// deadlines are staggered across one period so expiry load is uniform,
// like independent peers on the η grid.
func armSelfRearming(armed int, period time.Duration) (eng *sim.Engine, w *Wheel, fired *int) {
	eng = sim.NewEngine()
	w = NewWheel(Config{Clock: eng, Tick: time.Millisecond})
	fired = new(int)
	spread := int(period / time.Millisecond)
	for i := 0; i < armed; i++ {
		var tm Rearmable
		tm = w.NewTimer(func() {
			*fired++
			tm.Reschedule(period)
		})
		tm.Reschedule(time.Duration(i%spread+1) * time.Millisecond)
	}
	return eng, w, fired
}

// BenchmarkSched1M drives 2^20 self-re-arming deadlines through a single
// wheel over the virtual engine. One op is one timer expiry plus its
// re-arm. A measurement only: TestWheelExpiryZeroAlloc is the allocation
// gate.
func BenchmarkSched1M(b *testing.B) {
	if testing.Short() {
		b.Skip("arming 2^20 timers dominates the wall clock")
	}
	const armed = 1 << 20
	for _, sh := range expiryShapes {
		b.Run(sh.name, func(b *testing.B) {
			eng, w, fired := armSelfRearming(armed, sh.period)
			b.ReportAllocs()
			b.ResetTimer()
			for *fired < b.N {
				if !eng.Step() {
					b.Fatal("engine drained with timers still armed")
				}
			}
			b.StopTimer()
			st := w.Stats()
			if st.Scheduled != armed {
				b.Fatalf("armed deadlines drifted: %d, want %d", st.Scheduled, armed)
			}
			b.ReportMetric(float64(st.Scheduled), "timers_armed")
			if b.N > 1 {
				b.ReportMetric(float64(st.SlotsSkipped)/float64(b.N), "slots_skipped/op")
			}
		})
	}
}

// BenchmarkDriverStorm is a mass failure on one real-clock wheel: 2^16
// deadlines inside two ticks, fired serially by the wheel's driver. One op
// is one storm; ns/expiry is the span from the first callback to the last
// over the deadlines fired, storm_ms the span from the first deadline to
// the last callback (wake-up lateness included).
func BenchmarkDriverStorm(b *testing.B) {
	const deadlines = 1 << 16
	clk := sim.NewRealClock()
	w := NewWheel(Config{Clock: clk, Tick: time.Millisecond})
	defer w.Close()
	var left, firstFired atomic.Int64
	lastFired := make(chan time.Duration)
	timers := make([]Rearmable, deadlines)
	for i := range timers {
		timers[i] = w.NewTimer(func() {
			now := clk.Now()
			firstFired.CompareAndSwap(0, int64(now))
			if left.Add(-1) == 0 {
				lastFired <- now
			}
		})
	}
	var firing, storm time.Duration
	b.ResetTimer()
	for it := 0; it < b.N; it++ {
		left.Store(deadlines)
		firstFired.Store(0)
		now := clk.Now()
		// Far enough ahead that every deadline is armed before the first
		// one is due.
		first := now + 100*time.Millisecond
		for i, tm := range timers {
			tm.RescheduleAt(first+time.Duration(i)*2*time.Millisecond/deadlines, now)
		}
		last := <-lastFired
		firing += last - time.Duration(firstFired.Load())
		storm += last - first
	}
	b.StopTimer()
	b.ReportMetric(float64(firing)/float64(b.N)/deadlines, "ns/expiry")
	b.ReportMetric(float64(storm)/float64(b.N)/1e6, "storm_ms")
}

// TestWheelExpiryZeroAlloc pins the deadline path's allocation count
// exactly: over whole periods of expiry and re-arm the process mallocs
// twice per wheel wake-up — the virtual engine's event and timer handle
// behind the wheel's single AfterFunc — and nothing per timer, whatever
// the armed count. Nodes recycle through the arena free list and the fire
// batch buffer is reused across wake-ups.
func TestWheelExpiryZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc accounting holds only in normal builds")
	}
	// The malloc counter is process-wide; as testing.AllocsPerRun does,
	// leave other goroutines no second CPU to allocate on meanwhile.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const periods = 4
	for _, sh := range expiryShapes {
		for _, armed := range []int{1 << 10, 1 << 14} {
			t.Run(fmt.Sprintf("%s/%d", sh.name, armed), func(t *testing.T) {
				eng, w, fired := armSelfRearming(armed, sh.period)
				// Warm-up: one period grows the batch buffer, the node arena
				// and the engine's queue to their steady-state sizes.
				if err := eng.Run(sh.period); err != nil {
					t.Fatal(err)
				}
				// Other goroutines (earlier tests winding down, the runtime)
				// can only add mallocs, so one exact window out of three
				// shows the wheel's own count.
				var mallocs, wakeups uint64
				for attempt := 0; attempt < 3; attempt++ {
					var before, after runtime.MemStats
					wake0, fired0, start := w.Stats().Wakeups, *fired, eng.Now()
					runtime.ReadMemStats(&before)
					err := eng.Run(start + periods*sh.period)
					runtime.ReadMemStats(&after)
					if err != nil {
						t.Fatal(err)
					}
					if got := *fired - fired0; got != periods*armed {
						t.Fatalf("%d expiries over %d periods, want %d", got, periods, periods*armed)
					}
					mallocs, wakeups = after.Mallocs-before.Mallocs, w.Stats().Wakeups-wake0
					if mallocs == 2*wakeups {
						return
					}
				}
				t.Errorf("%d mallocs over %d wake-ups and %d expiries, want exactly 2 per wake-up and 0 per timer",
					mallocs, wakeups, periods*armed)
			})
		}
	}
}
