package sched

import (
	"math"
	"math/bits"
	"sync"
	"sync/atomic"
	"time"

	"wanfd/internal/arena"
	"wanfd/internal/sim"
	"wanfd/internal/telemetry"
)

// Wheel geometry, one for every wheel. The fine level resolves one tick per
// slot across a 2048-tick window; the coarse level holds one 2048-tick span
// per slot across a further 128 spans. At the monitor's 100 µs tick that is
// 204.8 ms of exact resolution and a ≈26 s horizon; at the 1 ms DefaultTick
// 2.048 s and ≈262 s — past the paper's WAN timeouts (η = 1 s, δ up to
// ~10 s) either way. Deadlines beyond the horizon wait on the overflow list
// and are re-examined at each fine-wheel wrap.
const (
	fineBits    = 11
	fineSlots   = 1 << fineBits
	fineMask    = fineSlots - 1
	coarseBits  = 7
	coarseSlots = 1 << coarseBits
	coarseMask  = coarseSlots - 1
	// wheelSpan is the total in-wheel horizon in ticks.
	wheelSpan = fineSlots << coarseBits
)

// DefaultTick is the slot granularity used when Config.Tick is zero: the
// bucket width, not the firing clock. Only deadlines sharing a slot with an
// earlier one wait for its boundary, and one millisecond bounds that wait
// three orders of magnitude under the paper's η = 1 s heartbeat period.
const DefaultTick = time.Millisecond

// noWake is the wake instant of a wheel with nothing queued.
const noWake = time.Duration(math.MaxInt64)

// MaxHold caps how long a delivery in flight holds expiry back (see
// Config.InFlight): a stamp older than this no longer counts, so a delivery
// path blocked for good delays suspicions by at most MaxHold.
const MaxHold = time.Second

// Config parameterizes a Wheel.
type Config struct {
	// Clock is the time source the wheel runs over. A wheel over a
	// *sim.RealClock is advanced by its driver goroutine; any other
	// sim.Clock (notably *sim.Engine) drives the wheel through that clock's
	// own AfterFunc events, keeping virtual executions deterministic.
	Clock sim.Clock
	// Tick is the slot granularity; DefaultTick when zero.
	Tick time.Duration
	// Telemetry, if set, is the registry of the monitor the wheel serves,
	// where NewWheel registers the wheel's series (see instrument).
	Telemetry *telemetry.Registry
	// InFlight, if set, reports the earliest receive stamp of a delivery
	// still in progress, math.MaxInt64 when none is. The wheel fires no
	// deadline after that stamp until the delivery ends, so a heartbeat
	// stamped by its freshness point is always seen before the point
	// expires. The added detection time is the delivery's own
	// duration — plus, for a delivery longer than holdSpin, the driver's
	// poll interval of one tick, which the Go runtime may stretch to a
	// millisecond — and never more than MaxHold.
	InFlight func() time.Duration
}

// Stats is a point-in-time snapshot of a wheel's counters.
type Stats struct {
	// Scheduled is the number of timers currently queued.
	Scheduled int
	// Fired counts timers expired over the wheel's lifetime.
	Fired uint64
	// Batches counts non-empty expiry batches; Fired/Batches is the mean
	// batch size.
	Batches uint64
	// Cascades counts timers migrated coarse→fine or overflow→wheel.
	Cascades uint64
	// MaxSlotOccupancy is the high-water mark of timers sharing one fine
	// slot — one firing tick. A coarse slot holds a whole 2048-tick span
	// of deadlines that fire apart, so it does not count.
	MaxSlotOccupancy int
	// FineOccupied and CoarseOccupied count the slots whose lists are
	// currently non-empty — the occupancy the skip bitmaps track.
	// OverflowTimers is the overflow list's current length.
	FineOccupied   int
	CoarseOccupied int
	OverflowTimers int
	// SlotsSkipped counts ticks the advance loop crossed without touching
	// a slot list, thanks to the occupancy bitmaps; at sparse occupancy it
	// dwarfs Fired.
	SlotsSkipped uint64
	// Wakeups counts advances of this wheel (by the real-clock driver or a
	// virtual-mode wake event). The wheel asks to be advanced at the
	// earliest deadline of its earliest occupied slot and at most once
	// more at that slot's boundary, so Wakeups stays proportional to
	// occupied ticks, not elapsed ticks.
	Wakeups uint64
}

// timerNode is the in-wheel state of one armed timer: the intrusive list
// linkage, the list it is on, the tick that buckets it, the exact
// deadline, and the handle to fire. Nodes live in the wheel's arena only
// while the timer is queued — Stop and expiry free the slot, Reschedule
// reuses it — so at rest an idle timer costs only its handle.
type timerNode struct {
	link arena.Link
	lid  int32 // which wheel list the node is on; see listFor
	tk   int64
	at   time.Duration
	t    *Timer
}

// ListLink satisfies arena.Linked.
func (n *timerNode) ListLink() *arena.Link { return &n.link }

// timerList is an intrusive arena-indexed list of timer nodes.
type timerList = arena.List[timerNode, *timerNode]

// List ids: the due and overflow lists first, then the fine slots, then
// the coarse slots. Stored per node so unlink finds its list (and the
// occupancy bit to clear) without re-deriving placement from a tick that
// may since have advanced past it.
const (
	lidDue      = int32(0)
	lidOverflow = int32(1)
	lidFine0    = int32(2)
)

// firing is one drained timer plus the generation and deadline captured
// under the wheel lock, so the fire loop can detect a concurrent
// Stop/Reschedule without touching timer fields unlocked.
type firing struct {
	t   *Timer
	gen uint64
	at  time.Duration
}

// Wheel is a two-level hierarchical timing wheel implementing sim.Clock
// and DeadlineClock. All mutable state is guarded by mu; callbacks always
// run with mu released.
type Wheel struct {
	clk  sim.Clock
	tick time.Duration
	// lag observes each expiry batch's lateness; nil without telemetry.
	lag      *telemetry.Histogram
	inFlight func() time.Duration
	// drv advances the wheel in real-clock mode; nil in virtual mode.
	drv *driver

	mu  sync.Mutex
	cur int64 // last fully processed tick
	// early is the tick of the slot in progress once a visit ahead of its
	// boundary has fired from it: whatever the slot still holds, or is
	// armed into it, waits for the boundary visit.
	early    int64
	nodes    *arena.Arena[timerNode]
	fine     [fineSlots]timerList
	coarse   [coarseSlots]timerList
	overflow timerList
	due      timerList // non-positive delays: fire at next wakeup

	// Occupancy bitmaps: one bit per slot, set while the slot's list is
	// non-empty, so tick advance and next-wake scans skip empty slots a
	// word (64 slots) at a time instead of probing each list.
	fineOcc   [fineSlots / 64]uint64
	coarseOcc [coarseSlots / 64]uint64
	fineCnt   int // occupied fine slots
	coarseCnt int // occupied coarse slots
	// overMin is a conservative lower bound on the earliest overflow
	// tick: exact after every cascade scan (which walks the whole list),
	// only lowered in between (Stop of the minimum leaves it stale-low,
	// which can cost a harmless early wakeup, never a late one).
	overMin int64

	scheduled int
	fired     uint64
	batches   uint64
	cascades  uint64
	skipped   uint64
	wakeups   uint64
	maxSlot   int
	closed    bool

	// wakeAt is the instant the wheel has asked to be advanced at (noWake
	// when nothing is queued): never later than its next due visit.
	// Written under mu; the real-clock driver reads it without.
	wakeAt atomic.Int64
	// wake is the pending host-clock event behind wakeAt in virtual mode.
	wake sim.Timer
	// batch is the reusable fire buffer: one goroutine advances a wheel at
	// a time, so it is never aliased across advances.
	batch []firing
}

var (
	_ sim.Clock     = (*Wheel)(nil)
	_ DeadlineClock = (*Wheel)(nil)
)

// NewWheel builds a wheel over cfg.Clock, aligned so tick 0 is the clock's
// epoch. Over a *sim.RealClock it has a lazily started driver goroutine;
// over a virtual clock it schedules its own wake events.
func NewWheel(cfg Config) *Wheel {
	tick := cfg.Tick
	if tick <= 0 {
		tick = DefaultTick
	}
	w := &Wheel{
		clk:      cfg.Clock,
		tick:     tick,
		inFlight: cfg.InFlight,
		nodes:    arena.New[timerNode](),
		overMin:  math.MaxInt64,
	}
	w.cur = w.tickFloor(w.clk.Now())
	w.wakeAt.Store(int64(noWake))
	if _, ok := cfg.Clock.(*sim.RealClock); ok {
		w.drv = &driver{clk: cfg.Clock, w: w, kick: make(chan struct{}, 1)}
		w.drv.sleepAt.Store(int64(noWake))
	}
	w.instrument(cfg.Telemetry)
	return w
}

// instrument registers the wheel's series on r: the batch-lag histogram,
// observed per expiry batch, and a collector writing one Stats snapshot per
// scrape.
func (w *Wheel) instrument(r *telemetry.Registry) {
	w.lag = r.Histogram(telemetry.MetricSchedBatchLag, "Lateness of an expiry batch: its collection minus its earliest deadline, i.e. how late the driver woke (plus, for a deadline sharing a wheel slot with an earlier one, its wait of under one tick for the slot's boundary visit).", nil)
	r.Collect(func(s *telemetry.Scrape) {
		st := w.Stats()
		s.Gauge(0, float64(st.Scheduled))
		s.Counter(1, st.Fired)
		s.Counter(2, st.Cascades)
		s.Gauge(3, float64(st.MaxSlotOccupancy))
		s.Counter(4, st.SlotsSkipped)
		s.Counter(5, st.Wakeups)
		s.Gauge(6, float64(st.FineOccupied))
		s.Gauge(7, float64(st.CoarseOccupied))
		s.Gauge(8, float64(st.OverflowTimers))
	},
		telemetry.Desc{Name: telemetry.MetricSchedTimers, Help: "Deadlines currently queued on the timing wheel.", Type: telemetry.TypeGauge},
		telemetry.Desc{Name: telemetry.MetricSchedFired, Help: "Timing-wheel timers expired.", Type: telemetry.TypeCounter},
		telemetry.Desc{Name: telemetry.MetricSchedCascades, Help: "Timers migrated between timing-wheel levels.", Type: telemetry.TypeCounter},
		telemetry.Desc{Name: telemetry.MetricSchedMaxSlot, Help: "High-water mark of deadlines sharing one fine wheel slot (one firing tick).", Type: telemetry.TypeGauge},
		telemetry.Desc{Name: telemetry.MetricSchedSlotsSkipped, Help: "Empty wheel slots crossed by bitmap skip-scan instead of probing.", Type: telemetry.TypeCounter},
		telemetry.Desc{Name: telemetry.MetricSchedWakeups, Help: "Wheel advances by the expiry driver: one at an occupied slot's earliest deadline, at most one more at its tick boundary.", Type: telemetry.TypeCounter},
		telemetry.Desc{Name: telemetry.MetricSchedFineOccupied, Help: "Fine-level wheel slots currently holding deadlines.", Type: telemetry.TypeGauge},
		telemetry.Desc{Name: telemetry.MetricSchedCoarseOccupied, Help: "Coarse-level wheel slots currently holding deadlines.", Type: telemetry.TypeGauge},
		telemetry.Desc{Name: telemetry.MetricSchedOverflow, Help: "Deadlines parked beyond the wheel horizon.", Type: telemetry.TypeGauge},
	)
}

// Now reports the host clock's time, so wheel consumers and non-wheel
// code observe the same instants.
func (w *Wheel) Now() time.Duration { return w.clk.Now() }

// NewTimer returns an unscheduled rearmable timer firing fn.
func (w *Wheel) NewTimer(fn func()) Rearmable {
	return &Timer{w: w, h: expireFunc(fn)}
}

// AfterFunc schedules fn to run once after d, satisfying sim.Clock.
func (w *Wheel) AfterFunc(d time.Duration, fn func()) sim.Timer {
	t := &Timer{w: w, h: expireFunc(fn)}
	t.Reschedule(d)
	return t
}

// Stats snapshots the wheel's counters.
func (w *Wheel) Stats() Stats {
	w.mu.Lock()
	s := Stats{
		Scheduled:        w.scheduled,
		Fired:            w.fired,
		Batches:          w.batches,
		Cascades:         w.cascades,
		MaxSlotOccupancy: w.maxSlot,
		FineOccupied:     w.fineCnt,
		CoarseOccupied:   w.coarseCnt,
		OverflowTimers:   w.overflow.Len(),
		SlotsSkipped:     w.skipped,
		Wakeups:          w.wakeups,
	}
	w.mu.Unlock()
	return s
}

// Close cancels every queued timer and stops the driver. Timers already
// collected into a fire batch may still run once. The wheel accepts no
// new work afterwards.
func (w *Wheel) Close() {
	w.mu.Lock()
	if w.closed {
		w.mu.Unlock()
		return
	}
	w.closed = true
	w.clearListLocked(&w.due)
	w.clearListLocked(&w.overflow)
	for i := range w.fine {
		w.clearListLocked(&w.fine[i])
	}
	for i := range w.coarse {
		w.clearListLocked(&w.coarse[i])
	}
	clear(w.fineOcc[:])
	clear(w.coarseOcc[:])
	w.fineCnt, w.coarseCnt = 0, 0
	w.scheduled = 0
	w.cancelWakeLocked()
	w.mu.Unlock()
	if w.drv != nil {
		w.drv.poke(false)
	}
}

// clearListLocked cancels and frees every node on l.
func (w *Wheel) clearListLocked(l *timerList) {
	for !l.Empty() {
		idx := l.Head()
		n := w.nodes.Get(idx)
		n.t.gen.Add(1)
		n.t.node = arena.Nil
		l.Remove(w.nodes, idx)
		w.nodes.Free(idx)
	}
}

// tickFloor maps an instant to the last tick boundary at or before it.
func (w *Wheel) tickFloor(at time.Duration) int64 {
	if at < 0 {
		return 0
	}
	return int64(at / w.tick)
}

// tickCeil maps a deadline to the first tick boundary at or after it: the
// tick whose slot buckets the deadline, and the latest instant it fires.
func (w *Wheel) tickCeil(at time.Duration) int64 {
	if at <= 0 {
		return 0
	}
	return int64((at + w.tick - 1) / w.tick)
}

// listFor maps a list id back to its list.
func (w *Wheel) listFor(lid int32) *timerList {
	switch {
	case lid == lidDue:
		return &w.due
	case lid == lidOverflow:
		return &w.overflow
	case int64(lid) < int64(lidFine0)+fineSlots:
		return &w.fine[int64(lid)-int64(lidFine0)]
	default:
		return &w.coarse[int64(lid)-int64(lidFine0)-fineSlots]
	}
}

// enqueueLocked links node idx onto the list lid and maintains the
// occupancy bitmaps and counters.
func (w *Wheel) enqueueLocked(lid int32, idx arena.Index, n *timerNode) {
	n.lid = lid
	l := w.listFor(lid)
	wasEmpty := l.Empty()
	l.PushBack(w.nodes, idx)
	switch {
	case lid == lidDue:
	case lid == lidOverflow:
		if n.tk < w.overMin {
			w.overMin = n.tk
		}
	case int64(lid) < int64(lidFine0)+fineSlots:
		if wasEmpty {
			s := int64(lid) - int64(lidFine0)
			w.fineOcc[s>>6] |= 1 << uint(s&63)
			w.fineCnt++
		}
		if l.Len() > w.maxSlot {
			w.maxSlot = l.Len()
		}
	default:
		if wasEmpty {
			s := int64(lid) - int64(lidFine0) - fineSlots
			w.coarseOcc[s>>6] |= 1 << uint(s&63)
			w.coarseCnt++
		}
	}
}

// dequeueLocked unlinks node idx from its current list and maintains the
// occupancy bitmaps and counters. The node stays allocated.
func (w *Wheel) dequeueLocked(idx arena.Index, n *timerNode) {
	lid := n.lid
	l := w.listFor(lid)
	l.Remove(w.nodes, idx)
	if !l.Empty() || lid == lidDue || lid == lidOverflow {
		return
	}
	if s := int64(lid) - int64(lidFine0); s < fineSlots {
		w.fineOcc[s>>6] &^= 1 << uint(s&63)
		w.fineCnt--
	} else {
		s -= fineSlots
		w.coarseOcc[s>>6] &^= 1 << uint(s&63)
		w.coarseCnt--
	}
}

// placeLocked links a node into the level its deadline tick falls in: due
// (already expired), fine (within the fine window), coarse (within the
// wheel span), or overflow. A coarse slot holds the ticks (B, B+fineSlots]
// behind one wrap boundary B, so its flush at B lands every one of them in
// a fine slot before that slot's first deadline.
func (w *Wheel) placeLocked(idx arena.Index, n *timerNode) {
	var lid int32
	switch delta := n.tk - w.cur; {
	case delta <= 0:
		lid = lidDue
	case delta <= fineSlots:
		lid = lidFine0 + int32(n.tk&fineMask)
	case delta <= wheelSpan:
		lid = lidFine0 + int32(fineSlots) + int32(((n.tk-1)>>fineBits)&coarseMask)
	default:
		lid = lidOverflow
	}
	w.enqueueLocked(lid, idx, n)
}

// cascadeLocked runs when a fine-wheel wrap is crossed: the coarse slot
// whose span just entered the fine window is flushed down, and overflow
// timers now within the wheel span are admitted. The overflow walk is
// skipped entirely while the earliest overflow deadline is provably
// beyond the span (overMin is a conservative lower bound), and each walk
// re-tightens the bound for free.
func (w *Wheel) cascadeLocked() {
	ci := (w.cur >> fineBits) & coarseMask
	if w.coarseOcc[ci>>6]&(1<<uint(ci&63)) != 0 {
		slot := &w.coarse[ci]
		for !slot.Empty() {
			idx := slot.Head()
			n := w.nodes.Get(idx)
			w.dequeueLocked(idx, n)
			w.placeLocked(idx, n)
			w.cascades++
		}
	}
	if w.overflow.Empty() || w.overMin-w.cur > wheelSpan {
		return
	}
	newMin := int64(math.MaxInt64)
	for idx := w.overflow.Head(); idx != arena.Nil; {
		n := w.nodes.Get(idx)
		next := n.link.Next()
		if n.tk-w.cur <= wheelSpan {
			w.dequeueLocked(idx, n)
			w.placeLocked(idx, n)
			w.cascades++
		} else if n.tk < newMin {
			newMin = n.tk
		}
		idx = next
	}
	w.overMin = newMin
}

// expireLocked moves one queued timer into the batch, capturing generation
// and deadline under the lock, and frees its node.
func (w *Wheel) expireLocked(idx arena.Index, n *timerNode, batch []firing) []firing {
	t, at := n.t, n.at
	w.dequeueLocked(idx, n)
	w.nodes.Free(idx)
	t.node = arena.Nil
	w.scheduled--
	w.fired++
	return append(batch, firing{t: t, gen: t.gen.Load(), at: at})
}

// drainLocked expires every timer on l, in list order.
func (w *Wheel) drainLocked(l *timerList, batch []firing) []firing {
	for !l.Empty() {
		idx := l.Head()
		batch = w.expireLocked(idx, w.nodes.Get(idx), batch)
	}
	return batch
}

// drainDueLocked expires the timers on l whose deadline is not after now,
// in list order, and leaves the rest queued.
func (w *Wheel) drainDueLocked(l *timerList, now time.Duration, batch []firing) []firing {
	for idx := l.Head(); idx != arena.Nil; {
		n := w.nodes.Get(idx)
		next := n.link.Next()
		if n.at <= now {
			batch = w.expireLocked(idx, n, batch)
		}
		idx = next
	}
	return batch
}

// earliestLocked returns the earliest deadline queued on the non-empty l.
func (w *Wheel) earliestLocked(l *timerList) time.Duration {
	best := noWake
	for idx := l.Head(); idx != arena.Nil; {
		n := w.nodes.Get(idx)
		if n.at < best {
			best = n.at
		}
		idx = n.link.Next()
	}
	return best
}

// nextFineTickLocked scans the fine occupancy bitmap for the first
// occupied tick in (w.cur, hi], where hi lies in the same fine-wheel
// segment as the ticks being scanned (so slot indices do not wrap).
func (w *Wheel) nextFineTickLocked(hi int64) (int64, bool) {
	lo := w.cur + 1
	from, to := lo&fineMask, hi&fineMask
	wi, wTo := from>>6, to>>6
	word := w.fineOcc[wi] >> uint(from&63) << uint(from&63)
	for {
		if wi == wTo {
			// Mask off bits above `to`.
			if keep := uint(to&63) + 1; keep < 64 {
				word &= 1<<keep - 1
			}
		}
		if word != 0 {
			s := wi<<6 + int64(bits.TrailingZeros64(word))
			return (lo &^ fineMask) | s, true
		}
		if wi == wTo {
			return 0, false
		}
		wi++
		word = w.fineOcc[wi]
	}
}

// advanceLocked processes every tick whose boundary now has reached,
// cascading at fine-wheel wraps, and collects expired timers in slot order
// (insertion order within a slot, so same-deadline timers fire in schedule
// order, matching the engine's FIFO tie-break). Empty stretches are
// crossed through the occupancy bitmaps without touching a slot list. From
// the slot in progress it then takes the deadlines now has passed, once:
// what that visit leaves behind fires at the boundary, so a slot is
// fired from at most twice and a storm still expires as a batch.
func (w *Wheel) advanceLocked(now time.Duration, batch []firing) []firing {
	target := w.tickFloor(now)
	batch = w.drainDueLocked(&w.due, now, batch)
	for w.cur < target {
		if w.fineCnt == 0 && w.coarseCnt == 0 && w.overflow.Empty() {
			// Nothing in the wheel at all: the remaining ticks (and their
			// wrap cascades) are provably no-ops.
			w.skipped += uint64(target - w.cur)
			w.cur = target
			break
		}
		// Ticks remaining inside the current fine segment, before the
		// next wrap cascade is due.
		segEnd := (w.cur &^ fineMask) + fineSlots
		hi := target
		if segEnd-1 < hi {
			hi = segEnd - 1
		}
		for w.cur < hi {
			if w.fineCnt == 0 {
				w.skipped += uint64(hi - w.cur)
				w.cur = hi
				break
			}
			tk, ok := w.nextFineTickLocked(hi)
			if !ok {
				w.skipped += uint64(hi - w.cur)
				w.cur = hi
				break
			}
			w.skipped += uint64(tk - w.cur - 1)
			w.cur = tk
			batch = w.drainLocked(&w.fine[tk&fineMask], batch)
		}
		if segEnd > target {
			break
		}
		// Cross the wrap boundary: drain the boundary tick's own slot,
		// which the cascade is about to refill with the tick one fine
		// window on, then cascade and drain anything it surfaced as due.
		w.cur = segEnd
		batch = w.drainLocked(&w.fine[w.cur&fineMask], batch)
		w.cascadeLocked()
		batch = w.drainLocked(&w.due, batch)
	}
	if p := target + 1; w.cur == target && p != w.early {
		before := len(batch)
		batch = w.drainDueLocked(&w.fine[p&fineMask], now, batch)
		if len(batch) > before {
			w.early = p
		}
	}
	return batch
}

// nextCoarseFlushLocked reports the tick at which the earliest occupied
// coarse slot will be flushed into the fine window, or false when the
// coarse level is empty. A slot c is flushed when the wheel enters the
// fine segment whose index ≡ c, i.e. 1..coarseSlots segments ahead of cur.
func (w *Wheel) nextCoarseFlushLocked() (int64, bool) {
	if w.coarseCnt == 0 {
		return 0, false
	}
	ci := (w.cur >> fineBits) & coarseMask
	// Scan the coarse bitmap circularly starting just after ci; the first
	// occupied slot found is the fewest segments ahead.
	for d := int64(1); d <= coarseSlots; {
		c := (ci + d) & coarseMask
		word := w.coarseOcc[c>>6] >> uint(c&63)
		if word != 0 {
			d += int64(bits.TrailingZeros64(word))
			if d > coarseSlots {
				break
			}
			return (w.cur &^ fineMask) + d<<fineBits, true
		}
		d += 64 - c&63
	}
	// Unreachable if coarseCnt is consistent; fail safe with the nearest
	// boundary rather than sleeping forever.
	return (w.cur &^ fineMask) + fineSlots, true
}

// nextWakeLocked reports the next instant the wheel must be advanced at,
// or noWake when nothing is queued. The earliest occupied fine slot (each
// holds a single deadline tick at a time) is visited at its earliest
// deadline, or at its boundary once it has been fired from; the coarse
// level needs a wakeup only at the wrap that flushes its earliest occupied
// slot, and the overflow list only at the wrap that first admits its
// earliest deadline into the span — idle wraps in between are slept
// through entirely.
func (w *Wheel) nextWakeLocked() time.Duration {
	if w.scheduled == 0 {
		return noWake
	}
	if !w.due.Empty() {
		return time.Duration(w.cur) * w.tick
	}
	best := int64(-1)
	if w.fineCnt > 0 {
		// The fine window covers (cur, cur+fineSlots]: the tail of the
		// current segment, then the whole next segment up to and
		// including its last tick.
		if tk, ok := w.nextFineTickLocked((w.cur &^ fineMask) + fineSlots - 1); ok {
			best = tk
		} else {
			lo := (w.cur &^ fineMask) + fineSlots
			save := w.cur
			w.cur = lo - 1 // scan [lo, lo+cur&fineMask] in the next segment
			if tk, ok := w.nextFineTickLocked(lo + save&fineMask); ok {
				best = tk
			}
			w.cur = save
		}
	}
	fine := best // the earliest occupied fine tick, -1 when there is none
	if flush, ok := w.nextCoarseFlushLocked(); ok && (best == -1 || flush < best) {
		best = flush
	}
	if !w.overflow.Empty() {
		// First wrap boundary at which overMin comes within the span.
		adm := (w.overMin - wheelSpan + fineMask) &^ fineMask
		if next := (w.cur &^ fineMask) + fineSlots; adm < next {
			adm = next
		}
		if best == -1 || adm < best {
			best = adm
		}
	}
	if best == -1 {
		// Unreachable if counters are consistent; fail safe by polling
		// the next tick rather than sleeping forever.
		best = w.cur + 1
	}
	at := time.Duration(best) * w.tick
	if fine != -1 && fine != w.early {
		if e := w.earliestLocked(&w.fine[fine&fineMask]); e < at {
			at = e
		}
	}
	return at
}

// fireBatch invokes the collected callbacks with no locks held. A timer
// whose generation moved on (Stop or Reschedule since the drain) is
// skipped — its cancellation won.
func (w *Wheel) fireBatch(batch []firing, collectedAt time.Duration) {
	if len(batch) == 0 {
		return
	}
	if w.lag != nil {
		earliest := batch[0].at
		for _, f := range batch[1:] {
			if f.at < earliest {
				earliest = f.at
			}
		}
		lag := collectedAt - earliest
		if lag < 0 {
			lag = 0
		}
		w.lag.Observe(lag.Seconds())
	}
	for _, f := range batch {
		if f.t.gen.Load() != f.gen {
			continue
		}
		f.t.h.Expire()
	}
}

// advance is the virtual wake event: one expiry step (see step).
func (w *Wheel) advance() { w.step() }

// step is the one expiry step of both modes, run by the real-clock driver
// or, through advance, by the virtual wake event: collect what is due, ask
// for the next wake, and fire with the lock released. It reports the stamp
// of the delivery in flight that held a due deadline back, noWake when
// none did; the driver then waits for that delivery to end (driver.await).
func (w *Wheel) step() (held time.Duration) {
	w.mu.Lock()
	if w.closed {
		w.mu.Unlock()
		return noWake
	}
	w.cancelWakeLocked() // the request being served
	now := w.clk.Now()
	limit := w.limit(now)
	w.wakeups++
	batch := w.advanceLocked(limit, w.batch[:0])
	w.batch = batch // keep the grown buffer for the next advance
	if len(batch) > 0 {
		w.batches++
	}
	next := w.nextWakeLocked()
	held = noWake
	if limit < now && next <= now {
		held = limit
	}
	// The driver needs no poke: it is the caller.
	w.requestWakeLocked(next)
	w.mu.Unlock()
	w.fireBatch(batch, now)
	return held
}

// limit is the latest instant an advance at now may expire up to: now, or
// the earliest stamp of a delivery still in flight if that is earlier and
// younger than MaxHold. It reads the clock before the stamps, as delivery
// publishes a stamp before taking it: a delivery this read misses was
// stamped after now.
func (w *Wheel) limit(now time.Duration) time.Duration {
	if w.inFlight == nil {
		return now
	}
	if at := w.inFlight(); at < now && now-at <= MaxHold {
		return at
	}
	return now
}

// requestWakeLocked makes sure the wheel is advanced no later than at. In
// virtual mode it arms the host-clock event itself, replacing a later one
// (the advance loop crosses any idle wraps before at through the bitmaps,
// so one event serves however far ahead at lies). In real mode it reports
// whether the driver must be poked because it is asleep past at.
func (w *Wheel) requestWakeLocked(at time.Duration) (poke bool) {
	if at >= time.Duration(w.wakeAt.Load()) {
		return false
	}
	w.wakeAt.Store(int64(at))
	if w.drv != nil {
		return at < time.Duration(w.drv.sleepAt.Load())
	}
	if w.wake != nil {
		w.wake.Stop()
	}
	// An instant already past makes a negative delay, which every
	// sim.Clock fires at once.
	w.wake = w.clk.AfterFunc(at-w.clk.Now(), w.advance)
	return false
}

// cancelWakeLocked withdraws the wheel's pending wake request.
func (w *Wheel) cancelWakeLocked() {
	w.wakeAt.Store(int64(noWake))
	if w.wake != nil {
		w.wake.Stop()
		w.wake = nil
	}
}

// Expirer is what a Timer fires: a consumer that embeds its Timer passes
// itself (see Bind) and allocates nothing.
type Expirer interface {
	Expire()
}

// expireFunc adapts a plain callback.
type expireFunc func()

func (f expireFunc) Expire() { f() }

// Timer is a rearmable wheel timer handle. Its in-wheel state lives in
// the wheel's node arena only while the timer is queued; the handle
// itself is one small long-lived allocation per consumer, or a field of
// the consumer (Bind). The unqueued state is reached through Stop or
// expiry; Reschedule re-arms from any state in O(1) without allocating
// (node slots recycle through the arena's free list).
type Timer struct {
	w *Wheel
	h Expirer

	// gen is bumped under w.mu by every Stop and Reschedule; a fire batch
	// entry whose captured generation no longer matches is dropped.
	gen atomic.Uint64

	// node is the timer's arena slot while queued, Nil otherwise; guarded
	// by w.mu. The generation-stamped Index makes a stale handle resolve
	// nil instead of aliasing a recycled node.
	node arena.Index
}

// Bind makes t — memory its consumer owns, zero or bound before — a timer of
// w firing h, and returns it. The wheel keeps pointers to timers it has
// collected for firing, so that memory must stay a Timer while the wheel
// lives; re-binding to the same wheel and handler writes nothing, so a
// consumer in reused memory may re-initialise while an expiry collected in
// its previous life is in flight. t must not be queued.
func (t *Timer) Bind(w *Wheel, h Expirer) *Timer {
	if t.w != w || t.h != h {
		t.w, t.h = w, h
	}
	return t
}

// Reschedule re-arms the timer to fire d from now, replacing any pending
// deadline in O(1).
func (t *Timer) Reschedule(d time.Duration) {
	w := t.w
	w.mu.Lock()
	if w.closed {
		w.mu.Unlock()
		return
	}
	now := w.clk.Now()
	if d < 0 {
		d = 0
	}
	t.rescheduleLocked(now+d, now)
}

// RescheduleAt re-arms the timer to fire at the absolute instant at,
// reusing the caller's clock reading now instead of reading the clock
// again. The bucket and the wake request derive from at alone, so a stale
// (monotone) now can only make the empty-wheel fast-forward less
// aggressive — the timer never fires early. An at not after now fires as
// soon as possible.
func (t *Timer) RescheduleAt(at, now time.Duration) {
	w := t.w
	w.mu.Lock()
	if w.closed {
		w.mu.Unlock()
		return
	}
	t.rescheduleLocked(at, now)
}

// rescheduleLocked places the timer for the absolute deadline at, with now
// the caller's reading of the wheel clock. Called with w.mu held; releases
// it (and pokes the driver outside the lock).
func (t *Timer) rescheduleLocked(at, now time.Duration) {
	w := t.w
	t.gen.Add(1)
	idx := t.node
	n := w.nodes.Get(idx)
	if n != nil {
		w.dequeueLocked(idx, n)
		w.scheduled--
	}
	if w.scheduled == 0 {
		// Empty wheel: fast-forward so an idle stretch is not replayed
		// tick by tick on the next wakeup.
		if c := w.tickFloor(now); c > w.cur {
			w.cur = c
		}
	}
	if at < now {
		at = now
	}
	if n == nil {
		idx, n = w.nodes.Alloc()
		t.node = idx
		n.t = t
	}
	n.at = at
	if at == now {
		n.tk = w.cur
	} else {
		n.tk = w.tickCeil(at)
	}
	w.placeLocked(idx, n)
	w.scheduled++
	poke := w.requestWakeLocked(at)
	w.mu.Unlock()
	if poke {
		w.drv.poke(true)
	}
}

// Stop cancels the timer, reporting whether it was queued. Stopping a
// timer whose batch is already collected but not yet fired still
// suppresses the callback (the generation moves on) but returns false,
// mirroring time.Timer's contract that false may mean "already fired".
func (t *Timer) Stop() bool {
	w := t.w
	w.mu.Lock()
	t.gen.Add(1)
	idx := t.node
	n := w.nodes.Get(idx)
	if n == nil {
		w.mu.Unlock()
		return false
	}
	w.dequeueLocked(idx, n)
	w.nodes.Free(idx)
	t.node = arena.Nil
	w.scheduled--
	empty := w.scheduled == 0
	if empty {
		w.cancelWakeLocked()
	}
	w.mu.Unlock()
	if empty && w.drv != nil {
		// Wake a parked driver so it notices the wheel emptied and can
		// exit instead of sleeping out its timer.
		w.drv.poke(false)
	}
	return true
}
