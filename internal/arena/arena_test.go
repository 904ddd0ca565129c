package arena

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
)

type rec struct {
	id   int
	name string
}

func TestAllocGetFree(t *testing.T) {
	a := New[rec]()
	idx, r := a.Alloc()
	if idx == Nil {
		t.Fatal("Alloc returned Nil index")
	}
	r.id, r.name = 7, "seven"
	got := a.Get(idx)
	if got == nil || got.id != 7 || got.name != "seven" {
		t.Fatalf("Get = %+v, want the allocated record", got)
	}
	if a.Len() != 1 {
		t.Fatalf("Len = %d, want 1", a.Len())
	}
	if !a.Free(idx) {
		t.Fatal("Free reported false for a live index")
	}
	if a.Len() != 0 {
		t.Fatalf("Len after Free = %d, want 0", a.Len())
	}
	if a.Get(idx) != nil {
		t.Fatal("Get resolved a freed index")
	}
	if a.Free(idx) {
		t.Fatal("double Free reported true")
	}
}

func TestNilIndex(t *testing.T) {
	a := New[rec]()
	if a.Get(Nil) != nil {
		t.Fatal("Get(Nil) resolved")
	}
	if a.Free(Nil) {
		t.Fatal("Free(Nil) reported true")
	}
}

// TestGenerationStampsStaleReuse is the safety property DESIGN.md §13
// leans on: an index captured before a Free must not resolve to the slot's
// next tenant.
func TestGenerationStampsStaleReuse(t *testing.T) {
	a := New[rec]()
	idx1, r1 := a.Alloc()
	r1.id = 1
	a.Free(idx1)
	idx2, r2 := a.Alloc()
	r2.id = 2
	if idx2.slot() != idx1.slot() {
		t.Fatalf("LIFO free list should reuse slot %d, got %d", idx1.slot(), idx2.slot())
	}
	if idx1 == idx2 {
		t.Fatal("reused slot produced an identical index")
	}
	if a.Get(idx1) != nil {
		t.Fatal("stale index resolved to the slot's new tenant")
	}
	if got := a.Get(idx2); got == nil || got.id != 2 {
		t.Fatalf("fresh index Get = %+v, want id 2", got)
	}
}

// TestFreeZeroes pins that Free drops the record's pointers: a freed slot
// must not pin the old payload for the garbage collector.
func TestFreeZeroes(t *testing.T) {
	a := New[rec]()
	idx, r := a.Alloc()
	r.name = "payload"
	a.Free(idx)
	idx2, r2 := a.Alloc()
	if idx2.slot() != idx.slot() {
		t.Fatalf("expected slot reuse, got slot %d", idx2.slot())
	}
	if r2.name != "" || r2.id != 0 {
		t.Fatalf("reused record not zeroed: %+v", r2)
	}
}

// slabLen is the record count of one slab.
func (a *Arena[T]) slabLen() int { return 1 << a.slabBits }

// slabsFor allocates n records and reports the slabs that took and the
// records one slab holds.
func slabsFor[T any](n int) (slabs, perSlab int) {
	a := New[T]()
	for i := 0; i < n; i++ {
		a.Alloc()
	}
	return a.Stats().Slabs, a.slabLen()
}

// TestSlabsSizedInBytes pins the slab geometry: the record count is the
// largest power of two whose records fit slabBytes, so an arena's idle
// tail costs about 16 KiB whatever it stores.
func TestSlabsSizedInBytes(t *testing.T) {
	const n = 4096
	check := func(name string, slabs, perSlab, wantSlabs, wantPerSlab int) {
		t.Helper()
		if slabs != wantSlabs || perSlab != wantPerSlab {
			t.Errorf("%s records: %d slabs of %d for %d records, want %d of %d", name, slabs, perSlab, n, wantSlabs, wantPerSlab)
		}
	}
	s, p := slabsFor[[16]byte](n)
	check("16 B", s, p, 4, 1024)
	s, p = slabsFor[[56]byte](n)
	check("56 B", s, p, 16, 256)
	s, p = slabsFor[[256]byte](n)
	check("256 B", s, p, 64, 64)
	s, p = slabsFor[[3 * slabBytes]byte](2)
	check("larger than a slab", s, p, 2, 1)
	if got := New[struct{}]().slabLen(); got != slabBytes {
		t.Errorf("zero-size records: %d per slab, want %d", got, slabBytes)
	}
}

// lockedRec is a record with a lock of its own, the shape Release and At
// exist for.
type lockedRec struct {
	mu    sync.Mutex
	owner Index // the live occupant, Nil while free; guarded by mu
	hits  int
}

// TestReleaseKeepsRecord pins the non-zeroing release: the slot's bytes
// survive into its next allocation, while the generation moves on exactly
// as it does for Free.
func TestReleaseKeepsRecord(t *testing.T) {
	a := New[lockedRec]()
	idx, r := a.Alloc()
	r.hits = 41
	if !a.Release(idx) {
		t.Fatal("Release reported false for a live index")
	}
	if a.Get(idx) != nil || a.Release(idx) || a.Free(idx) {
		t.Fatal("released index still resolves or releases twice")
	}
	if got := a.At(idx); got != r {
		t.Fatalf("At(stale) = %p, want the slot's stable address %p", got, r)
	}
	idx2, r2 := a.Alloc()
	if r2 != r || idx2 == idx || r2.hits != 41 {
		t.Fatalf("reuse after Release: record %p hits %d index %v, want the same memory, untouched, under a new index", r2, r2.hits, idx2)
	}
	if st := a.Stats(); st.Live != 1 || st.Reused != 1 {
		t.Fatalf("Stats = %+v, want 1 live, 1 reused", st)
	}
	if a.At(Nil) != nil || a.At(makeIndex(1<<20, 1)) != nil {
		t.Fatal("At resolved an index no Alloc produced")
	}
}

// TestAtWithoutLock is the delivery path in miniature, for the race
// detector: readers resolve indices through At with no lock while a writer
// (serialized by its own mutex, as callers must) churns slots and grows the
// arena, and each record's mutex plus its owner stamp keeps a stale reader
// off the slot's next occupant.
func TestAtWithoutLock(t *testing.T) {
	a := New[lockedRec]()
	var mu sync.Mutex // the caller's lock: Alloc and Release only
	const slots = 8
	handles := make([]atomic.Uint64, slots)
	alloc := func(i int) {
		mu.Lock()
		idx, r := a.Alloc()
		mu.Unlock()
		r.mu.Lock()
		r.owner, r.hits = idx, 0
		r.mu.Unlock()
		handles[i].Store(uint64(idx))
	}
	for i := range handles {
		alloc(i)
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	var delivered, dropped atomic.Uint64
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				idx := Index(handles[i%slots].Load())
				r := a.At(idx)
				if r == nil {
					t.Error("At lost a slot that was allocated")
					return
				}
				r.mu.Lock()
				if r.owner == idx {
					r.hits++
					delivered.Add(1)
				} else {
					dropped.Add(1)
				}
				r.mu.Unlock()
			}
		}()
	}
	// At least 2,000 hand-overs, and as many more as it takes for the
	// readers to have been scheduled against them.
	for round := 0; round < 2000 || delivered.Load() < 1000; round++ {
		i := round % slots
		idx := Index(handles[i].Load())
		r := a.At(idx)
		r.mu.Lock()
		r.owner = Nil
		r.mu.Unlock()
		mu.Lock()
		a.Release(idx)
		if round%50 == 0 {
			a.Alloc() // grow: the directory is republished under the readers
		}
		mu.Unlock()
		alloc(i)
	}
	close(stop)
	wg.Wait()
	if delivered.Load() == 0 {
		t.Fatal("no reader ever reached a live record")
	}
	t.Logf("%d delivered, %d dropped as stale", delivered.Load(), dropped.Load())
}

func TestSlabGrowth(t *testing.T) {
	a := New[int]()
	n := a.slabLen()*2 + 3
	idxs := make([]Index, n)
	for i := 0; i < n; i++ {
		idx, p := a.Alloc()
		*p = i
		idxs[i] = idx
	}
	st := a.Stats()
	if st.Live != n || st.Slabs != 3 {
		t.Fatalf("Stats = %+v, want Live %d across 3 slabs", st, n)
	}
	for i, idx := range idxs {
		if p := a.Get(idx); p == nil || *p != i {
			t.Fatalf("record %d = %v, want %d", i, p, i)
		}
	}
}

// TestChurnOccupancy pins the arena half of the churn invariant: a full
// add/remove cycle returns occupancy to baseline without growing capacity.
func TestChurnOccupancy(t *testing.T) {
	a := New[rec]()
	n := a.slabLen() + 100
	for cycle := 0; cycle < 5; cycle++ {
		idxs := make([]Index, n)
		for i := range idxs {
			idxs[i], _ = a.Alloc()
		}
		for _, idx := range idxs {
			a.Free(idx)
		}
		if a.Len() != 0 {
			t.Fatalf("cycle %d: Len = %d, want 0", cycle, a.Len())
		}
		if got, want := a.Stats().Slabs, 2; got != want {
			t.Fatalf("cycle %d: %d slabs, want %d (churn must not grow the arena)", cycle, got, want)
		}
	}
	if st := a.Stats(); st.Reused < uint64(4*n) {
		t.Fatalf("Reused = %d, want >= %d (free-list reuse)", st.Reused, 4*n)
	}
}

func TestRange(t *testing.T) {
	a := New[int]()
	var idxs []Index
	for i := 0; i < 10; i++ {
		idx, p := a.Alloc()
		*p = i
		idxs = append(idxs, idx)
	}
	a.Free(idxs[3])
	a.Free(idxs[7])
	seen := map[int]bool{}
	a.Range(func(i Index, p *int) bool {
		seen[*p] = true
		return true
	})
	if len(seen) != 8 || seen[3] || seen[7] {
		t.Fatalf("Range visited %v, want all but 3 and 7", seen)
	}
	// Early termination.
	count := 0
	a.Range(func(Index, *int) bool { count++; return false })
	if count != 1 {
		t.Fatalf("Range after false continued: %d visits", count)
	}
}

func TestMap64Basics(t *testing.T) {
	m := NewMap64(0)
	if _, ok := m.Get(42); ok {
		t.Fatal("Get on empty table reported ok")
	}
	m.Put(42, makeIndex(0, 1))
	m.Put(43, makeIndex(1, 1))
	if v, ok := m.Get(42); !ok || v != makeIndex(0, 1) {
		t.Fatalf("Get(42) = %v %v", v, ok)
	}
	if m.Len() != 2 {
		t.Fatalf("Len = %d, want 2", m.Len())
	}
	if v, ok := m.Delete(42); !ok || v != makeIndex(0, 1) {
		t.Fatalf("Delete(42) = %v %v", v, ok)
	}
	if _, ok := m.Get(42); ok {
		t.Fatal("Get found a deleted key")
	}
	if _, ok := m.Delete(42); ok {
		t.Fatal("double Delete reported ok")
	}
}

func TestMap64GrowthKeepsEntries(t *testing.T) {
	m := NewMap64(0)
	const n = 10_000
	for i := uint64(0); i < n; i++ {
		m.Put(i, makeIndex(uint32(i), 1))
	}
	for i := uint64(0); i < n; i++ {
		if v, ok := m.Get(i); !ok || v != makeIndex(uint32(i), 1) {
			t.Fatalf("Get(%d) = %v %v after growth", i, v, ok)
		}
	}
	st := m.Stats()
	if st.Live != n {
		t.Fatalf("Live = %d, want %d", st.Live, n)
	}
	if st.Live*4 > st.Cap*3 {
		t.Fatalf("load factor %d/%d exceeds the 3/4 bound", st.Live, st.Cap)
	}
}

// TestMap64TombstoneCompaction is the table half of the churn invariant:
// repeated fill/drain cycles must return tombstones and load factor to
// baseline and keep probe lengths bounded.
func TestMap64TombstoneCompaction(t *testing.T) {
	m := NewMap64(0)
	const n = 4096
	for cycle := 0; cycle < 8; cycle++ {
		for i := uint64(0); i < n; i++ {
			m.Put(i, makeIndex(uint32(i), 1))
		}
		for i := uint64(0); i < n; i++ {
			if _, ok := m.Delete(i); !ok {
				t.Fatalf("cycle %d: Delete(%d) missed", cycle, i)
			}
		}
		st := m.Stats()
		if st.Live != 0 {
			t.Fatalf("cycle %d: Live = %d, want 0", cycle, st.Live)
		}
		if st.Tombstones*4 > st.Cap {
			t.Fatalf("cycle %d: %d tombstones on cap %d — compaction did not run", cycle, st.Tombstones, st.Cap)
		}
	}
	if st := m.Stats(); st.Rehashes == 0 {
		t.Fatal("churn produced no rehashes — the compaction path never ran")
	}
	// A fresh fill after heavy churn must still probe like a fresh table.
	for i := uint64(0); i < n; i++ {
		m.Put(i, makeIndex(uint32(i), 1))
	}
	if st := m.Stats(); st.MaxProbe > 64 {
		t.Fatalf("MaxProbe = %d after churn, want bounded (<=64)", st.MaxProbe)
	}
}

// TestMap64DuplicateKeys exercises the lossy-key mode: entries sharing a
// key coexist and Find/Remove disambiguate through eq.
func TestMap64DuplicateKeys(t *testing.T) {
	a := New[rec]()
	m := NewMap64(0)
	const h = uint64(0xdeadbeef) // one shared (collided) hash for all entries
	var idxs []Index
	for i := 0; i < 4; i++ {
		idx, r := a.Alloc()
		r.id = i
		r.name = fmt.Sprintf("peer-%d", i)
		m.Put(h, idx)
		idxs = append(idxs, idx)
	}
	for i := 0; i < 4; i++ {
		want := fmt.Sprintf("peer-%d", i)
		v, ok := m.Find(h, func(ix Index) bool { return a.Get(ix).name == want })
		if !ok || a.Get(v).id != i {
			t.Fatalf("Find(%q) = %v %v", want, v, ok)
		}
	}
	if _, ok := m.Find(h, func(ix Index) bool { return a.Get(ix).name == "peer-9" }); ok {
		t.Fatal("Find matched a non-existent name on a collided chain")
	}
	// Remove the middle entries; the chain must stay walkable.
	for _, i := range []int{1, 2} {
		want := fmt.Sprintf("peer-%d", i)
		if _, ok := m.Remove(h, func(ix Index) bool { return a.Get(ix).name == want }); !ok {
			t.Fatalf("Remove(%q) missed", want)
		}
	}
	for _, i := range []int{0, 3} {
		want := fmt.Sprintf("peer-%d", i)
		if _, ok := m.Find(h, func(ix Index) bool { return a.Get(ix).name == want }); !ok {
			t.Fatalf("entry %q lost after sibling removal", want)
		}
	}
	_ = idxs
}

// TestTableZeroAllocLookups pins the hot-path property the receive path
// depends on: Get and Find allocate nothing.
func TestTableZeroAllocLookups(t *testing.T) {
	m := NewMap64(0)
	for i := uint64(0); i < 1000; i++ {
		m.Put(i, makeIndex(uint32(i), 1))
	}
	if n := testing.AllocsPerRun(100, func() {
		if _, ok := m.Get(500); !ok {
			t.Fatal("lost key")
		}
	}); n != 0 {
		t.Fatalf("Map64.Get allocates %v per op", n)
	}
	want := makeIndex(500, 1)
	if n := testing.AllocsPerRun(100, func() {
		if _, ok := m.Find(500, func(ix Index) bool { return ix == want }); !ok {
			t.Fatal("lost key")
		}
	}); n != 0 {
		t.Fatalf("Map64.Find allocates %v per op", n)
	}
}
