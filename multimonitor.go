package wanfd

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"wanfd/internal/arena"
	"wanfd/internal/core"
	"wanfd/internal/layers"
	"wanfd/internal/neko"
	"wanfd/internal/sched"
	"wanfd/internal/telemetry"
	"wanfd/internal/transport"
)

// PeerStatus is one peer's current detector state. The lifetime counters
// are the embedded DetectorStats fields.
type PeerStatus struct {
	// Peer is the configured peer name.
	Peer string
	// Suspected is the detector's current output.
	Suspected bool
	// Timeout is the current adaptive timeout (0 for a φ-accrual detector).
	Timeout time.Duration
	// Phi is the φ-accrual suspicion level (0 for a freshness-point
	// detector).
	Phi float64 `json:",omitempty"`
	// ClockOffset is the estimated peer clock offset (0 without
	// WithSyncClock).
	ClockOffset time.Duration `json:",omitempty"`
	// DetectorStats carries the Heartbeats, Stale and Suspicions counters.
	DetectorStats
}

// ClusterSnapshot is an aggregate view of a MultiMonitor: membership size,
// how many peers are currently trusted or suspected, the summed detector
// counters, and the per-peer breakdown. It marshals directly to JSON for
// the fdmonitor HTTP endpoint.
type ClusterSnapshot struct {
	// Uptime is the time since the monitor started.
	Uptime time.Duration
	// Peers is the current membership size.
	Peers int
	// Trusted and Suspected count the peers by detector output.
	Trusted, Suspected int
	// Totals sums every peer's detector counters.
	Totals DetectorStats
	// PeerStatuses is the per-peer breakdown, sorted by name. Snapshot
	// leaves it empty (the aggregate fields above cost no per-peer
	// allocation, so /stats stays cheap at 1M peers); SnapshotDetail
	// fills it in.
	PeerStatuses []PeerStatus `json:",omitempty"`
}

// peerNameHash hashes a peer name with an inline 64-bit FNV-1a
// (allocation-free on the query path, unlike hash/fnv over a copied
// name). The low bits pick the shard; the full hash keys the shard's
// open-addressed table, where names that collide on the hash coexist and
// are disambiguated by string comparison.
func peerNameHash(name string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(name); i++ {
		h ^= uint64(name[i])
		h *= 1099511628211
	}
	return h
}

// peerEntry is one live member: its transport identity and its detector
// stack. The detector is reached through mon (Consumer, or Detector for
// the freshness-point kind); ctrl is the peer's interval controller, nil
// without WithTargetDetection.
type peerEntry struct {
	name string
	addr string
	id   neko.ProcessID
	mon  *layers.Monitor
	ctrl *layers.IntervalController
}

// stop halts the entry's timers: the detector's deadline and the
// controller's evaluation loop.
func (e *peerEntry) stop() {
	e.mon.Stop()
	if e.ctrl != nil {
		e.ctrl.Stop()
	}
}

// detectorStats returns the entry's lifetime counters (zero for a consumer
// kind that exposes none).
func (e *peerEntry) detectorStats() DetectorStats {
	if sp, ok := e.mon.Consumer().(StatsProvider); ok {
		return sp.DetectorStats()
	}
	return DetectorStats{}
}

// peerShard is one lane of the peer table: entries live in an
// index-addressed arena and the name-keyed open-addressed table maps
// hashes to arena indices (see internal/arena). A *peerEntry from ents is
// only valid while mu is held — RemovePeer frees and zeroes the record
// under the write lock — so read paths copy the entry out before
// unlocking.
type peerShard struct {
	mu   sync.RWMutex
	tab  *arena.Map64
	ents *arena.Arena[peerEntry]
}

// find resolves a name to its arena index. Callers hold mu.
func (s *peerShard) find(h uint64, name string) (arena.Index, bool) {
	return s.tab.Find(h, func(i arena.Index) bool { return s.ents.Get(i).name == name })
}

// MultiMonitor is a running multi-peer UDP failure detector with dynamic
// membership: AddPeer and RemovePeer change the monitored set at runtime
// without dropping the socket or perturbing other peers' timers. All
// methods are safe for concurrent use.
type MultiMonitor struct {
	net       *transport.UDPNetwork
	router    *layers.Router
	ctx       *neko.Context
	opts      options
	nextID    atomic.Int64 // next peer ProcessID; monotonic, never reused
	shards    []peerShard
	shardMask uint64
	// wheels are the per-shard timing wheels all peer deadlines run on:
	// shard i's detectors schedule on wheels[i], and one lazily started
	// driver goroutine expires the deadlines of all of them.
	wheels []*sched.Wheel

	// Cluster-level telemetry; every field is nil (a no-op) when the
	// monitor was built without WithTelemetry.
	mPeers       *telemetry.Gauge
	mPeerAdds    *telemetry.Counter
	mPeerRemoves *telemetry.Counter
}

// multiMonitorID is the local process id of the multi-monitor; peers get
// ids above it.
const multiMonitorID neko.ProcessID = 1000

// NewMultiMonitor opens the socket and starts a cluster monitor: one
// failure detector per heartbeating peer over one UDP socket. Peers are
// identified by their source address, so every remote just runs a plain
// fdheartbeat/RunHeartbeater pointed at this monitor. The initial set is
// whatever WithPeer seeded (possibly empty); more join and leave at runtime
// through AddPeer/RemovePeer. Close must be called to release the socket.
func NewMultiMonitor(listen string, opts ...Option) (*MultiMonitor, error) {
	return newMultiMonitor(listen, resolveOptions(opts))
}

// newMultiMonitor is the one real-network monitor construction, shared by
// NewMultiMonitor and NewMonitor (a cluster seeded with one peer).
func newMultiMonitor(listen string, o options) (*MultiMonitor, error) {
	if err := o.validate(); err != nil {
		return nil, err
	}
	// Fold the split callbacks once, so every peer's listener carries a
	// single onChange closure.
	o.onChange = foldCallbacks(o.onSuspect, o.onTrust, o.onChange)
	prof := profileFor(o.expectedPeers)
	net, err := transport.NewUDPNetwork(transport.UDPConfig{
		LocalID:       multiMonitorID,
		Listen:        listen,
		Telemetry:     o.telemetry,
		Readers:       o.readers,
		ExpectedPeers: o.expectedPeers,
	})
	if err != nil {
		return nil, err
	}
	mm := &MultiMonitor{
		net:       net,
		router:    layers.NewRouterSharded(prof.shards),
		opts:      o,
		shards:    make([]peerShard, prof.shards),
		shardMask: uint64(prof.shards - 1),
	}
	mm.router.Instrument(o.telemetry)
	o.qstore.Instrument(o.telemetry)
	if reg := o.telemetry; reg != nil {
		mm.mPeers = reg.Gauge(telemetry.MetricPeers, "Current cluster membership size.")
		mm.mPeerAdds = reg.Counter(telemetry.MetricPeerAdds, "Peers added to the cluster monitor.")
		mm.mPeerRemoves = reg.Counter(telemetry.MetricPeerRemoves, "Peers removed from the cluster monitor.")
	}
	mm.nextID.Store(int64(multiMonitorID) + 1)
	// Pre-size each shard's table for its cut of the expected population.
	perShard := o.expectedPeers / prof.shards
	for i := range mm.shards {
		mm.shards[i].tab = arena.NewMap64(perShard)
		mm.shards[i].ents = arena.New[peerEntry]()
	}
	mm.ctx = &neko.Context{ID: multiMonitorID, Clock: net.Clock()}
	var onBatch func(int, time.Duration)
	if reg := o.telemetry; reg != nil {
		lag := reg.Histogram(telemetry.MetricSchedBatchLag,
			"Lateness of an expiry batch: its collection minus its earliest deadline, i.e. how late the driver woke (plus, for a deadline sharing a wheel slot with an earlier one, its wait of under one tick for the slot's boundary visit).", nil)
		onBatch = func(_ int, l time.Duration) { lag.Observe(l.Seconds()) }
	}
	mm.wheels = sched.NewWheels(prof.shards, sched.Config{
		Clock:       net.Clock(),
		OnBatch:     onBatch,
		FineSlots:   prof.fineSlots,
		CoarseSlots: prof.coarseSlots,
	})
	if reg := o.telemetry; reg != nil {
		reg.GaugeFunc(telemetry.MetricSchedTimers,
			"Deadlines currently queued across the shard timing wheels.",
			func() float64 { return float64(mm.SchedulerStats().Timers) })
		reg.CounterFunc(telemetry.MetricSchedFired,
			"Timing-wheel timers expired.",
			func() float64 { return float64(mm.SchedulerStats().Fired) })
		reg.CounterFunc(telemetry.MetricSchedCascades,
			"Timers migrated between timing-wheel levels.",
			func() float64 { return float64(mm.SchedulerStats().Cascades) })
		reg.GaugeFunc(telemetry.MetricSchedMaxSlot,
			"High-water mark of deadlines sharing one wheel slot on any shard.",
			func() float64 { return float64(mm.SchedulerStats().MaxSlotOccupancy) })
		reg.CounterFunc(telemetry.MetricSchedSlotsSkipped,
			"Empty wheel slots crossed by bitmap skip-scan instead of probing.",
			func() float64 { return float64(mm.SchedulerStats().SlotsSkipped) })
		reg.CounterFunc(telemetry.MetricSchedWakeups,
			"Shard wheel advances by the expiry driver: one at an occupied slot's earliest deadline, at most one more at its tick boundary.",
			func() float64 { return float64(mm.SchedulerStats().Wakeups) })
		reg.GaugeFunc(telemetry.MetricSchedFineOccupied,
			"Fine-level wheel slots currently holding deadlines, summed over shards.",
			func() float64 { return float64(mm.SchedulerStats().FineSlotsOccupied) })
		reg.GaugeFunc(telemetry.MetricSchedCoarseOccupied,
			"Coarse-level wheel slots currently holding deadlines, summed over shards.",
			func() float64 { return float64(mm.SchedulerStats().CoarseSlotsOccupied) })
		reg.GaugeFunc(telemetry.MetricSchedOverflow,
			"Deadlines parked beyond the wheel horizon, summed over shards.",
			func() float64 { return float64(mm.SchedulerStats().OverflowTimers) })
	}
	proc, err := neko.NewProcess(multiMonitorID, net.Clock(), net, mm.router)
	if err != nil {
		_ = net.Close()
		return nil, err
	}
	if err := proc.Start(); err != nil {
		_ = net.Close()
		return nil, err
	}
	for _, p := range o.peers {
		if err := mm.AddPeer(p.name, p.addr); err != nil {
			_ = mm.Close()
			return nil, err
		}
	}
	return mm, nil
}

// AddPeer starts monitoring one more peer, identified by the source
// address its heartbeats will arrive from. The peer gets a fresh detector
// and a fresh process id — re-adding a previously removed name never
// resurrects old suspicion state. Names and addresses must be unique
// within the cluster. With WithSyncClock the call blocks for the clock-sync
// exchange and fails if the peer does not answer.
func (m *MultiMonitor) AddPeer(name, addr string) error {
	if name == "" {
		return fmt.Errorf("wanfd: empty peer name")
	}
	// Build the whole detector stack before touching the shard, so the
	// critical section other peers' queries (and a same-shard removal)
	// contend with is only the publication below, not the construction.
	// The deadline runs on the wheel of the shard that holds the peer's
	// table entry, so membership churn and timer load distribute identically.
	h := peerNameHash(name)
	consumer, err := m.opts.newConsumer(name, m.wheels[h&m.shardMask])
	if err != nil {
		return err
	}
	mon, err := layers.NewConsumerMonitor(consumer)
	if err != nil {
		return err
	}
	if err := mon.Init(m.ctx); err != nil {
		return err
	}
	e := peerEntry{name: name, addr: addr, id: neko.ProcessID(m.nextID.Add(1) - 1), mon: mon}
	if m.opts.targetDetection > 0 {
		e.ctrl, err = layers.NewIntervalController(layers.IntervalControllerConfig{
			Detector:        mon.Detector(),
			TargetDetection: m.opts.targetDetection,
			Peer:            e.id,
		})
		if err != nil {
			return err
		}
		// The controller only sends: its commands go down through the
		// router to the socket, and nothing is routed up to it.
		e.ctrl.SetBelow(m.router)
		if err := e.ctrl.Init(m.ctx); err != nil {
			return err
		}
	}
	if err := m.register(h, e); err != nil {
		e.stop()
		return err
	}
	return nil
}

// register makes a built entry live: transport first, so the sync exchange
// can reach the peer, and the route only after it, so the first heartbeat
// the detector sees is already offset-corrected. Heartbeats arriving in
// between are attributed but unrouted and dropped — loss the detector
// tolerates anyway. No shard lock is held across the exchange; a failure
// after the transport registration rolls it back.
func (m *MultiMonitor) register(h uint64, e peerEntry) (err error) {
	if err := m.net.AddPeer(e.id, e.addr); err != nil {
		return err
	}
	defer func() {
		if err != nil {
			_ = m.net.RemovePeer(e.id)
		}
	}()
	if m.opts.syncTimeout > 0 {
		if _, err := m.net.SyncWith(e.id, 8, m.opts.syncTimeout); err != nil {
			return fmt.Errorf("wanfd: clock sync with %s: %w", e.name, err)
		}
	}
	return m.publish(h, e)
}

// publish routes a registered entry and installs it in its shard's table,
// unless the name is taken.
func (m *MultiMonitor) publish(h uint64, e peerEntry) error {
	s := &m.shards[h&m.shardMask]
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, dup := s.find(h, e.name); dup {
		return fmt.Errorf("wanfd: peer %q already monitored", e.name)
	}
	if err := m.router.Route(e.id, e.mon); err != nil {
		return err
	}
	idx, slot := s.ents.Alloc()
	*slot = e
	s.tab.Put(h, idx)
	if det := e.mon.Detector(); det != nil {
		m.opts.exportDetector(e.name, det)
	}
	m.mPeerAdds.Inc()
	// Maintained incrementally: Peers() would re-lock the shard held here.
	m.mPeers.Add(1)
	return nil
}

// RemovePeer stops monitoring a peer and tears its detector down. Other
// peers' detectors and timers are untouched; packets still in flight from
// the removed peer are ignored.
func (m *MultiMonitor) RemovePeer(name string) error {
	h := peerNameHash(name)
	s := &m.shards[h&m.shardMask]
	s.mu.Lock()
	var e peerEntry
	idx, ok := s.tab.Remove(h, func(i arena.Index) bool { return s.ents.Get(i).name == name })
	if ok {
		// Copy the entry out before freeing: Free zeroes the record, and
		// the teardown below runs outside the shard lock.
		e = *s.ents.Get(idx)
		s.ents.Free(idx)
	}
	s.mu.Unlock()
	if !ok {
		return fmt.Errorf("wanfd: unknown peer %q", name)
	}
	// Unregister the address first so new packets stop being attributed,
	// then unroute and stop: a packet already past the transport lookup
	// still finds a live (about-to-stop) detector, and a straggler
	// arriving after Stop is discarded by the detector itself.
	_ = m.net.RemovePeer(e.id)
	_ = m.router.Unroute(e.id)
	e.stop()
	m.mPeerRemoves.Inc()
	m.mPeers.Add(-1)
	// Retire the peer's series and running QoS state so churn does not
	// grow the exposition without bound; re-added names start fresh,
	// matching the fresh-detector semantics.
	if reg := m.opts.telemetry; reg != nil {
		reg.DropSeries("peer", name)
		reg.QoS().RemovePeer(name)
	}
	return nil
}

// SchedulerStats is an aggregate snapshot of a cluster monitor's shard
// timing wheels.
type SchedulerStats struct {
	// Wheels is the number of shard wheels.
	Wheels int
	// Timers is the number of deadlines currently queued.
	Timers int
	// Fired, Batches and Cascades are lifetime totals: timers expired,
	// non-empty expiry batches, and timers migrated between wheel levels.
	Fired, Batches, Cascades uint64
	// MaxSlotOccupancy is the highest number of deadlines that ever shared
	// one wheel slot on any shard.
	MaxSlotOccupancy int
	// FineSlotsOccupied and CoarseSlotsOccupied sum, over the shards, the
	// wheel slots whose lists are currently non-empty; OverflowTimers sums
	// the deadlines parked beyond the wheel horizon.
	FineSlotsOccupied   int
	CoarseSlotsOccupied int
	OverflowTimers      int
	// SlotsSkipped counts empty slots the bitmap skip-scan crossed without
	// probing; Wakeups counts wheel advances by the expiry driver (an
	// occupied slot costs one at its earliest deadline and at most one more
	// at its boundary).
	SlotsSkipped uint64
	Wakeups      uint64
}

// WheelStats is one shard wheel's counter snapshot, as returned by
// SchedulerStatsDetail.
type WheelStats = sched.Stats

// SchedulerStats aggregates the shard wheels' counters.
func (m *MultiMonitor) SchedulerStats() SchedulerStats {
	var out SchedulerStats
	for _, w := range m.wheels {
		s := w.Stats()
		out.Wheels++
		out.Timers += s.Scheduled
		out.Fired += s.Fired
		out.Batches += s.Batches
		out.Cascades += s.Cascades
		if s.MaxSlotOccupancy > out.MaxSlotOccupancy {
			out.MaxSlotOccupancy = s.MaxSlotOccupancy
		}
		out.FineSlotsOccupied += s.FineSlotsOccupied
		out.CoarseSlotsOccupied += s.CoarseSlotsOccupied
		out.OverflowTimers += s.OverflowTimers
		out.SlotsSkipped += s.SlotsSkipped
		out.Wakeups += s.Wakeups
	}
	return out
}

// SchedulerStatsDetail returns each shard wheel's own snapshot, indexed by
// shard, for occupancy and skip-scan analysis at the per-wheel grain the
// aggregate hides. Like the table SnapshotDetail convention from the peer
// state layer, the per-shard breakdown is opt-in: SchedulerStats stays the
// cheap aggregate view.
func (m *MultiMonitor) SchedulerStatsDetail() []WheelStats {
	out := make([]WheelStats, len(m.wheels))
	for i, w := range m.wheels {
		out[i] = w.Stats()
	}
	return out
}

// lookup finds a live peer entry, returned by value: the arena record is
// only stable under the shard lock (a concurrent RemovePeer frees and
// zeroes it), but the copied pointers — monitor layer, controller — stay
// valid heap objects, exactly as they did when the table held *peerEntry.
func (m *MultiMonitor) lookup(name string) (peerEntry, bool) {
	h := peerNameHash(name)
	s := &m.shards[h&m.shardMask]
	s.mu.RLock()
	defer s.mu.RUnlock()
	if idx, ok := s.find(h, name); ok {
		return *s.ents.Get(idx), true
	}
	return peerEntry{}, false
}

// Suspected reports whether the named peer is currently suspected; unknown
// peers report an error.
func (m *MultiMonitor) Suspected(peer string) (bool, error) {
	e, ok := m.lookup(peer)
	if !ok {
		return false, fmt.Errorf("wanfd: unknown peer %q", peer)
	}
	return e.mon.Consumer().Suspected(), nil
}

// PeerStatusOf returns one peer's full status; unknown peers report an
// error.
func (m *MultiMonitor) PeerStatusOf(peer string) (PeerStatus, error) {
	e, ok := m.lookup(peer)
	if !ok {
		return PeerStatus{}, fmt.Errorf("wanfd: unknown peer %q", peer)
	}
	return m.status(&e), nil
}

// status builds the PeerStatus of one live entry. The clock offset is read
// from the transport only when the monitor syncs clocks at all.
func (m *MultiMonitor) status(e *peerEntry) PeerStatus {
	c := e.mon.Consumer()
	st := PeerStatus{Peer: e.name, Suspected: c.Suspected(), DetectorStats: e.detectorStats()}
	if det := e.mon.Detector(); det != nil {
		st.Timeout = time.Duration(det.CurrentTimeout() * float64(time.Millisecond))
	} else if acc, ok := c.(*core.AccrualDetector); ok {
		st.Phi = acc.Phi()
	}
	if m.opts.syncTimeout > 0 {
		st.ClockOffset = m.net.Offset(e.id)
	}
	return st
}

// Status returns every peer's state, sorted by peer name. Membership may
// change concurrently; the result is a consistent per-peer (not
// cross-peer) snapshot. Statuses are built shard by shard in one pass —
// the detector's own lock nests safely under a shard read lock.
func (m *MultiMonitor) Status() []PeerStatus {
	out := make([]PeerStatus, 0, m.Peers())
	for i := range m.shards {
		s := &m.shards[i]
		s.mu.RLock()
		s.ents.Range(func(_ arena.Index, e *peerEntry) bool {
			out = append(out, m.status(e))
			return true
		})
		s.mu.RUnlock()
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Peer < out[j].Peer })
	return out
}

// Peers returns the current membership size.
func (m *MultiMonitor) Peers() int {
	n := 0
	for i := range m.shards {
		s := &m.shards[i]
		s.mu.RLock()
		n += s.ents.Len()
		s.mu.RUnlock()
	}
	return n
}

// Snapshot aggregates the whole cluster: counts by output, summed
// counters, and uptime. It reads every detector but materializes no
// per-peer state — constant allocation regardless of membership size, so
// a stats endpoint polling it stays cheap at 1M peers. SnapshotDetail
// adds the per-peer breakdown.
func (m *MultiMonitor) Snapshot() ClusterSnapshot {
	snap := ClusterSnapshot{Uptime: m.ctx.Clock.Now()}
	for i := range m.shards {
		s := &m.shards[i]
		s.mu.RLock()
		s.ents.Range(func(_ arena.Index, e *peerEntry) bool {
			snap.Peers++
			if e.mon.Consumer().Suspected() {
				snap.Suspected++
			} else {
				snap.Trusted++
			}
			st := e.detectorStats()
			snap.Totals.Heartbeats += st.Heartbeats
			snap.Totals.Stale += st.Stale
			snap.Totals.Suspicions += st.Suspicions
			return true
		})
		s.mu.RUnlock()
	}
	return snap
}

// SnapshotDetail is Snapshot plus the per-peer breakdown, sorted by name.
// It allocates O(peers); prefer Snapshot for periodic polling at scale.
func (m *MultiMonitor) SnapshotDetail() ClusterSnapshot {
	st := m.Status()
	snap := ClusterSnapshot{
		Uptime:       m.ctx.Clock.Now(),
		Peers:        len(st),
		PeerStatuses: st,
	}
	for _, s := range st {
		if s.Suspected {
			snap.Suspected++
		} else {
			snap.Trusted++
		}
		snap.Totals.Heartbeats += s.Heartbeats
		snap.Totals.Stale += s.Stale
		snap.Totals.Suspicions += s.Suspicions
	}
	return snap
}

// LocalAddr returns the bound UDP address string.
func (m *MultiMonitor) LocalAddr() string { return m.net.LocalAddr().String() }

// Telemetry returns the registry the monitor was built with (nil without
// WithTelemetry).
func (m *MultiMonitor) Telemetry() *telemetry.Registry { return m.opts.telemetry }

// Close stops every detector, shuts the shard timing wheels down, and
// releases the socket.
func (m *MultiMonitor) Close() error {
	for i := range m.shards {
		s := &m.shards[i]
		s.mu.RLock()
		s.ents.Range(func(_ arena.Index, e *peerEntry) bool {
			e.stop()
			return true
		})
		s.mu.RUnlock()
	}
	for _, w := range m.wheels {
		w.Close()
	}
	return m.net.Close()
}
