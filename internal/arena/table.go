package arena

// An open-addressed hash table mapping packed integer keys to arena
// indices. It uses linear probing (the probe walks contiguous memory,
// which is what makes it faster than a Go map over structural keys at
// scale), deleted-entry tombstones so a Delete never reshuffles live
// entries under a concurrent reader's feet, and churn-driven compaction:
// when tombstones pile past a quarter of the capacity the table rehashes
// in place, returning the load factor — and the probe lengths it bounds —
// to baseline. See DESIGN.md §13 for the invariants.

const (
	ctrlEmpty uint8 = iota
	ctrlTomb
	ctrlFull
)

// tableMinCap is the smallest table capacity; it keeps a freshly built
// shard table from rehashing during the first few peers.
const tableMinCap = 16

// TableStats is a point-in-time snapshot of a table's layout health.
type TableStats struct {
	// Live is the number of resident entries and Cap the slot count;
	// Live/Cap is the live load factor.
	Live, Cap int
	// Tombstones is the number of deleted-entry markers currently standing
	// between live entries and probe termination. Compaction keeps this
	// below Cap/4.
	Tombstones int
	// MaxProbe is the longest probe sequence any resident entry needs —
	// recomputed at each rehash, so churn cannot ratchet it upward
	// indefinitely.
	MaxProbe int
	// Rehashes counts rehash passes (growth and tombstone compaction).
	Rehashes uint64
}

// splitmix64 is the avalanching finalizer scattering packed keys across
// the table; sequential process ids and packed addresses are near-linear,
// so the raw key would pile into runs.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Map64 maps uint64 keys to arena indices. Keys produced by a lossless
// packing (process ids) are unique and use Get/Put/Delete; keys produced by
// a lossy packing (string hashes, address digests) may collide, and callers
// disambiguate with the eq callback of Find/Remove — entries sharing a key
// coexist on one probe chain.
type Map64 struct {
	mask     uint64
	keys     []uint64
	vals     []Index
	ctrl     []uint8
	live     int
	dead     int
	maxProbe int
	rehashes uint64
}

// NewMap64 builds an empty table sized for hint entries (tableMinCap
// minimum).
func NewMap64(hint int) *Map64 {
	m := &Map64{}
	m.init(capFor(hint))
	return m
}

// capFor is the power-of-two capacity holding hint entries under the 3/4
// occupancy bound.
func capFor(hint int) int {
	c := tableMinCap
	for c*3/4 < hint {
		c <<= 1
	}
	return c
}

func (m *Map64) init(capacity int) {
	m.mask = uint64(capacity - 1)
	m.keys = make([]uint64, capacity)
	m.vals = make([]Index, capacity)
	m.ctrl = make([]uint8, capacity)
	m.live, m.dead, m.maxProbe = 0, 0, 0
}

// Len is the number of resident entries.
func (m *Map64) Len() int { return m.live }

// Cap is the current slot count.
func (m *Map64) Cap() int { return len(m.ctrl) }

// Stats snapshots the table's layout counters.
func (m *Map64) Stats() TableStats {
	return TableStats{
		Live:       m.live,
		Cap:        len(m.ctrl),
		Tombstones: m.dead,
		MaxProbe:   m.maxProbe,
		Rehashes:   m.rehashes,
	}
}

// Get returns the value of the first entry with key k. Use only on tables
// whose keys are unique (lossless packings).
func (m *Map64) Get(k uint64) (Index, bool) {
	i := splitmix64(k) & m.mask
	for {
		switch m.ctrl[i] {
		case ctrlEmpty:
			return Nil, false
		case ctrlFull:
			if m.keys[i] == k {
				return m.vals[i], true
			}
		}
		i = (i + 1) & m.mask
	}
}

// Find returns the value of the first entry with key k whose value
// satisfies eq — the lookup for lossy keys, where several entries may
// share k. eq is only invoked on candidates whose key matches.
func (m *Map64) Find(k uint64, eq func(Index) bool) (Index, bool) {
	i := splitmix64(k) & m.mask
	for {
		switch m.ctrl[i] {
		case ctrlEmpty:
			return Nil, false
		case ctrlFull:
			if m.keys[i] == k && eq(m.vals[i]) {
				return m.vals[i], true
			}
		}
		i = (i + 1) & m.mask
	}
}

// Put inserts k→v. The caller has already established the entry is absent
// (Get or Find returned false); duplicate keys from lossy packings simply
// coexist. Inserting may grow or compact the table.
func (m *Map64) Put(k uint64, v Index) {
	if (m.live+m.dead+1)*4 > len(m.ctrl)*3 {
		m.rehash(m.live + 1)
	}
	i := splitmix64(k) & m.mask
	probe := 1
	for m.ctrl[i] == ctrlFull {
		i = (i + 1) & m.mask
		probe++
	}
	if m.ctrl[i] == ctrlTomb {
		m.dead--
	}
	m.ctrl[i], m.keys[i], m.vals[i] = ctrlFull, k, v
	m.live++
	if probe > m.maxProbe {
		m.maxProbe = probe
	}
}

// Delete removes the entry with key k (unique-key tables), returning its
// value. The slot becomes a tombstone; when tombstones pass a quarter of
// the capacity the table compacts.
func (m *Map64) Delete(k uint64) (Index, bool) {
	return m.Remove(k, func(Index) bool { return true })
}

// Remove deletes the first entry with key k satisfying eq, returning its
// value.
func (m *Map64) Remove(k uint64, eq func(Index) bool) (Index, bool) {
	i := splitmix64(k) & m.mask
	for {
		switch m.ctrl[i] {
		case ctrlEmpty:
			return Nil, false
		case ctrlFull:
			if m.keys[i] == k && eq(m.vals[i]) {
				v := m.vals[i]
				m.ctrl[i] = ctrlTomb
				m.vals[i] = Nil
				m.live--
				m.dead++
				if m.dead*4 > len(m.ctrl) {
					m.rehash(m.live)
				}
				return v, true
			}
		}
		i = (i + 1) & m.mask
	}
}

// rehash rebuilds the table for at least need live entries: growth when
// the live set genuinely outgrew the capacity, same-size (or shrinking)
// compaction when tombstones were the problem. MaxProbe is recomputed
// from scratch, so the churn history cannot ratchet it.
func (m *Map64) rehash(need int) {
	oldKeys, oldVals, oldCtrl := m.keys, m.vals, m.ctrl
	newCap := capFor(need)
	// Never shrink below a quarter of the old capacity per pass; churny
	// tables would otherwise oscillate between growth and shrink rehashes.
	if newCap < len(oldCtrl)/4 {
		newCap = len(oldCtrl) / 4
	}
	if newCap < tableMinCap {
		newCap = tableMinCap
	}
	m.init(newCap)
	m.rehashes++
	for i, c := range oldCtrl {
		if c != ctrlFull {
			continue
		}
		m.Put(oldKeys[i], oldVals[i])
	}
}
