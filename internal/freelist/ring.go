// Package freelist provides fixed-capacity, allocation-free building
// blocks: a bounded lock-free ring (a Vyukov-style MPMC queue — the durable
// store's sample queue) and a freelist Pool built on it (used only by the
// benchmark harness). Both are sized once at construction and never grow —
// overflow is the caller's problem by design (the store counts and drops,
// the pool allocates and counts a miss; neither blocks), so a burst can
// never translate into unbounded memory or into backpressure on the
// detection path.
//
// Like internal/sched, the package sits beneath the repo's clock boundary
// (see internal/analysis.ClockUse): recycling infrastructure may read the
// monotonic clock directly for aging/decay policies without routing
// through sim.Clock, because it only stores opaque payloads and can never
// launder a detector timestamp.
package freelist

import "sync/atomic"

// cachePad separates hot atomics onto their own cache lines so producers
// and consumers do not false-share.
type cachePad [64]byte

// slot is one cell of a Ring. seq is the Vyukov sequence stamp: it equals
// the cell index when the cell is free for the enqueuer of that lap, and
// index+1 once a value is stored and visible to the dequeuer.
type slot[T any] struct {
	seq atomic.Uint64
	v   T
}

// Ring is a bounded multi-producer/multi-consumer queue. TryPush and
// TryPop are lock-free, never block, and never allocate; both fail fast
// (full/empty) instead of waiting. The zero value is not usable — build
// one with NewRing.
type Ring[T any] struct {
	mask  uint64
	slots []slot[T]
	_     cachePad
	enq   atomic.Uint64
	_     cachePad
	deq   atomic.Uint64
	_     cachePad
}

// NewRing builds a ring with at least the requested capacity, rounded up
// to the next power of two (minimum 2).
func NewRing[T any](capacity int) *Ring[T] {
	n := uint64(2)
	for n < uint64(capacity) {
		n <<= 1
	}
	r := &Ring[T]{mask: n - 1, slots: make([]slot[T], n)}
	for i := range r.slots {
		r.slots[i].seq.Store(uint64(i))
	}
	return r
}

// Cap returns the fixed capacity.
func (r *Ring[T]) Cap() int { return len(r.slots) }

// Len returns the approximate number of queued values. It is exact only
// when no push or pop is in flight; use it for telemetry, not decisions.
func (r *Ring[T]) Len() int {
	n := int64(r.enq.Load()) - int64(r.deq.Load())
	if n < 0 {
		n = 0
	}
	if n > int64(len(r.slots)) {
		n = int64(len(r.slots))
	}
	return int(n)
}

// TryPush enqueues v, reporting false (and storing nothing) when the ring
// is full.
func (r *Ring[T]) TryPush(v T) bool {
	pos := r.enq.Load()
	for {
		s := &r.slots[pos&r.mask]
		seq := s.seq.Load()
		switch diff := int64(seq) - int64(pos); {
		case diff == 0:
			if r.enq.CompareAndSwap(pos, pos+1) {
				s.v = v
				s.seq.Store(pos + 1)
				return true
			}
			pos = r.enq.Load()
		case diff < 0:
			// The dequeuer of the previous lap has not freed the cell:
			// the ring is full.
			return false
		default:
			pos = r.enq.Load()
		}
	}
}

// TryPushN enqueues a prefix of vs with a single position reservation,
// returning how many values were stored (0 when the ring is full). One
// compare-and-swap claims the whole run, so a drain batch costs one
// contended atomic instead of one per datagram.
//
// Safety of the scan-then-claim: every slot in the run is individually
// observed free (seq == position) after loading the enqueue cursor.
// Producers only claim positions by advancing the cursor, so a successful
// CAS from the loaded cursor proves no other producer touched the run in
// between, and consumers only ever free slots — an observed-free slot
// cannot become busy until we claim it.
func (r *Ring[T]) TryPushN(vs []T) int {
	if len(vs) == 0 {
		return 0
	}
	for {
		pos := r.enq.Load()
		n := uint64(0)
		for n < uint64(len(vs)) {
			s := &r.slots[(pos+n)&r.mask]
			if s.seq.Load() != pos+n {
				break
			}
			n++
		}
		if n == 0 {
			if int64(r.slots[pos&r.mask].seq.Load())-int64(pos) < 0 {
				return 0 // previous lap not freed: full
			}
			continue // cursor moved under us: reload
		}
		if !r.enq.CompareAndSwap(pos, pos+n) {
			continue
		}
		for i := uint64(0); i < n; i++ {
			s := &r.slots[(pos+i)&r.mask]
			s.v = vs[i]
			s.seq.Store(pos + i + 1)
		}
		return int(n)
	}
}

// TryPop dequeues the oldest value, reporting false (and the zero value)
// when the ring is empty.
func (r *Ring[T]) TryPop() (T, bool) {
	pos := r.deq.Load()
	for {
		s := &r.slots[pos&r.mask]
		seq := s.seq.Load()
		switch diff := int64(seq) - int64(pos+1); {
		case diff == 0:
			if r.deq.CompareAndSwap(pos, pos+1) {
				v := s.v
				var zero T
				s.v = zero // drop the reference so the GC can reclaim it
				s.seq.Store(pos + r.mask + 1)
				return v, true
			}
			pos = r.deq.Load()
		case diff < 0:
			// The enqueuer of this lap has not filled the cell: empty.
			var zero T
			return zero, false
		default:
			pos = r.deq.Load()
		}
	}
}

// TryPopN dequeues up to len(dst) values with a single position
// reservation, returning how many were stored into dst (0 when the ring is
// empty). The mirror of TryPushN: every slot in the run is observed filled
// (seq == position+1) after loading the dequeue cursor, and a successful
// CAS from that cursor proves exclusive ownership of the run — producers
// only ever fill slots, so an observed-filled slot stays filled until a
// consumer claims it.
func (r *Ring[T]) TryPopN(dst []T) int {
	if len(dst) == 0 {
		return 0
	}
	for {
		pos := r.deq.Load()
		n := uint64(0)
		for n < uint64(len(dst)) {
			s := &r.slots[(pos+n)&r.mask]
			if s.seq.Load() != pos+n+1 {
				break
			}
			n++
		}
		if n == 0 {
			if int64(r.slots[pos&r.mask].seq.Load())-int64(pos+1) < 0 {
				return 0 // this lap's enqueuer has not filled the cell: empty
			}
			continue // cursor moved under us: reload
		}
		if !r.deq.CompareAndSwap(pos, pos+n) {
			continue
		}
		var zero T
		for i := uint64(0); i < n; i++ {
			s := &r.slots[(pos+i)&r.mask]
			dst[i] = s.v
			s.v = zero // drop the reference so the GC can reclaim it
			s.seq.Store(pos + i + r.mask + 1)
		}
		return int(n)
	}
}
