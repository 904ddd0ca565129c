// Package arena provides the index-addressed memory layout the monitor's
// per-peer hot structures live in at scale: a generation-stamped slab
// allocator for fixed-size records (Arena) and an open-addressed hash
// table mapping uint64 keys to arena indices (Map64). Together they
// replace the pointer-chased map[...]*state pattern — one heap object and
// one map entry per peer — with dense slabs the garbage collector scans
// per slab instead of per peer, and with probe sequences that touch
// contiguous memory instead of hashing 32-byte structural keys.
//
// Concurrency contract: neither the arena nor the tables synchronize
// internally. Callers serialize mutations (Alloc/Free/Put/Delete) against
// each other and against readers the way the rest of the repo does — a
// shard RWMutex with mutations under the write lock and lookups under the
// read lock. What the generation stamps add on top is *stale index*
// safety: an Index captured in one lock epoch and dereferenced in a later
// one (after the slot was freed, and possibly reused for a different peer)
// resolves to nil instead of to the wrong record. Reuse of a freed slot
// bumps the slot's generation, so every Index ever handed out names
// exactly one allocation lifetime.
//
// The one exception is At, the delivery path's lookup: it reads only the
// slab directory, which growth republishes atomically, so a reader holding
// an Index reaches the slot's memory with no lock. Slabs are never freed or
// moved while the arena lives, so that memory is type-stable: a record with
// a mutex of its own, handed back with Release (no zeroing), stays safe to
// lock for a reader that resolved it a lifetime ago — who then compares
// generations under that mutex and leaves a slot that is not its own alone.
//
// The package stores opaque payloads and never reads any clock; unlike
// internal/sched it is deliberately NOT on the clockuse exemption list
// (see internal/analysis.ClockUse) — nothing in a memory allocator has any
// business near a timestamp.
package arena

import (
	"sync/atomic"
	"unsafe"
)

// slabBytes is the target size of one slab's record array: a slab holds the
// largest power-of-two record count that fits (at least one), so the last,
// partly filled slab an arena wastes is bounded in bytes — 1,024 16-byte
// records or 64 256-byte ones. Sixteen KiB keeps a shard of a few hundred
// fat records within a quarter of its payload and a million records within
// a few thousand slabs (GC scan roots).
const slabBytes = 16 << 10

// Index names one allocation lifetime of one slot: the slot number in the
// high 32 bits, the slot's generation at allocation time in the low 32.
// The zero Index is Nil and never names a live record (live generations
// are odd, and generation 0 is even).
type Index uint64

// Nil is the invalid Index; Get(Nil) is always nil.
const Nil Index = 0

// slot returns the packed slot number.
func (i Index) slot() uint32 { return uint32(i >> 32) }

// gen returns the packed generation.
func (i Index) gen() uint32 { return uint32(i) }

// makeIndex packs a slot number and generation.
func makeIndex(slot, gen uint32) Index {
	return Index(uint64(slot)<<32 | uint64(gen))
}

// slab is one fixed-size block of records. Generations live in a parallel
// array (not interleaved with the records) so a Get validates against a
// dense uint32 array and the record payloads stay contiguous.
type slab[T any] struct {
	gen []uint32
	val []T
}

// Stats is a point-in-time snapshot of an arena's occupancy.
type Stats struct {
	// Live is the number of currently allocated records.
	Live int
	// Capacity is the number of slots backed by slabs (Live plus the free
	// list).
	Capacity int
	// Slabs is the number of allocated slabs.
	Slabs int
	// Reused counts allocations served from the free list rather than by
	// slab growth — the churn the generation stamps make safe.
	Reused uint64
}

// Arena is a slab allocator for fixed-size records of type T. Records are
// addressed by Index; the pointer returned by Alloc/Get stays valid (slots
// never move) until the record is freed.
type Arena[T any] struct {
	// slabBits is log2 of the records per slab, derived from the record
	// size at New; slabMask is the matching in-slab slot mask.
	slabBits uint
	slabMask uint32
	slabs    []slab[T]
	// dir is slabs as growth last published it, for At: a stored header is
	// immutable, and growth only writes elements beyond its length.
	dir atomic.Pointer[[]slab[T]]
	// free is the LIFO stack of freed slot numbers; reusing the most
	// recently freed slot keeps churny workloads in warm cache lines.
	free   []uint32
	next   uint32 // first never-allocated slot
	live   int
	reused uint64
}

// New builds an empty arena. No slab is allocated until the first Alloc.
func New[T any]() *Arena[T] {
	var zero T
	size := unsafe.Sizeof(zero)
	if size == 0 {
		size = 1
	}
	a := &Arena[T]{}
	for size <= slabBytes>>(a.slabBits+1) {
		a.slabBits++
	}
	a.slabMask = 1<<a.slabBits - 1
	return a
}

// Alloc claims a slot and returns its Index and record pointer. The record
// is zero-valued (Free zeroes on release, and fresh slabs start zeroed)
// unless the slot was last handed back with Release.
func (a *Arena[T]) Alloc() (Index, *T) {
	var s uint32
	if n := len(a.free); n > 0 {
		s = a.free[n-1]
		a.free = a.free[:n-1]
		a.reused++
	} else {
		s = a.next
		a.next++
		if int(s>>a.slabBits) == len(a.slabs) {
			n := 1 << a.slabBits
			a.slabs = append(a.slabs, slab[T]{gen: make([]uint32, n), val: make([]T, n)})
			dir := a.slabs
			a.dir.Store(&dir)
		}
	}
	sl := &a.slabs[s>>a.slabBits]
	g := sl.gen[s&a.slabMask] + 1 // even (free) -> odd (live)
	sl.gen[s&a.slabMask] = g
	a.live++
	return makeIndex(s, g), &sl.val[s&a.slabMask]
}

// Get resolves an Index to its record, or nil when the index is Nil, out
// of range, or stale (its allocation lifetime has ended).
func (a *Arena[T]) Get(i Index) *T {
	s, g := i.slot(), i.gen()
	if g&1 == 0 || s >= a.next {
		return nil
	}
	sl := &a.slabs[s>>a.slabBits]
	if sl.gen[s&a.slabMask] != g {
		return nil
	}
	return &sl.val[s&a.slabMask]
}

// At resolves the slot an Index names without checking that the Index is
// still live and without the caller's lock: it is safe concurrently with
// every other method. Whose record the slot holds by now is the caller's
// question (see the package comment); nil means no Alloc produced i.
func (a *Arena[T]) At(i Index) *T {
	dir := a.dir.Load()
	s := i.slot()
	if dir == nil || i.gen()&1 == 0 || int(s>>a.slabBits) >= len(*dir) {
		return nil
	}
	return &(*dir)[s>>a.slabBits].val[s&a.slabMask]
}

// Free releases a record, zeroing it (dropping any pointers it held for
// the garbage collector) and bumping the slot generation so stale indices
// no longer resolve. Freeing a stale or Nil index is a no-op reporting
// false.
func (a *Arena[T]) Free(i Index) bool {
	r := a.release(i)
	if r == nil {
		return false
	}
	var zero T
	*r = zero
	return true
}

// Release is Free without the zeroing, for records readers reach through
// At: a mutex inside the record is never overwritten while someone may hold
// it. The caller has reset, under that mutex, what the next owner must not
// inherit.
func (a *Arena[T]) Release(i Index) bool { return a.release(i) != nil }

// release ends the lifetime i names and returns its record, or nil when i
// is Nil or stale.
func (a *Arena[T]) release(i Index) *T {
	s, g := i.slot(), i.gen()
	if g&1 == 0 || s >= a.next {
		return nil
	}
	sl := &a.slabs[s>>a.slabBits]
	if sl.gen[s&a.slabMask] != g {
		return nil
	}
	sl.gen[s&a.slabMask] = g + 1 // odd (live) -> even (free)
	a.free = append(a.free, s)
	a.live--
	return &sl.val[s&a.slabMask]
}

// Len is the number of live records.
func (a *Arena[T]) Len() int { return a.live }

// Cap is the number of slots currently backed by slabs.
func (a *Arena[T]) Cap() int { return len(a.slabs) << a.slabBits }

// Stats snapshots the arena's occupancy counters.
func (a *Arena[T]) Stats() Stats {
	return Stats{
		Live:     a.live,
		Capacity: a.Cap(),
		Slabs:    len(a.slabs),
		Reused:   a.reused,
	}
}

// Range calls f for every live record until f returns false. The iteration
// order is slot order, not insertion order. f must not Alloc or Free.
func (a *Arena[T]) Range(f func(Index, *T) bool) {
	for si := range a.slabs {
		sl := &a.slabs[si]
		base := uint32(si) << a.slabBits
		for j, g := range sl.gen {
			if base+uint32(j) >= a.next {
				return
			}
			if g&1 == 1 && !f(makeIndex(base+uint32(j), g), &sl.val[j]) {
				return
			}
		}
	}
}
