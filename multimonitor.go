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
	"wanfd/internal/store"
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
	// ClockOffset is the peer-minus-local clock offset the clock-sync
	// exchange estimated when the peer joined, subtracted from each of its
	// heartbeats' send stamps (0 without WithSyncClock).
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
// name). The hash keys the monitor's open-addressed peer table, where
// names that collide on the hash coexist and are disambiguated by string
// comparison.
func peerNameHash(name string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(name); i++ {
		h ^= uint64(name[i])
		h *= 1099511628211
	}
	return h
}

// peerEntry is one peer's whole record, a slot of the monitor's arena: the
// freshness-point detector by value — mutex, deadline, counters and wheel
// timer handle included — so a peer is this slot plus its predictor and its
// margin (for φ-accrual, one inter-arrival window they share). Delivery
// reaches the slot without the table lock, possibly after the slot has
// changed hands, which the arena's type-stable memory (never moved, freed or
// zeroed: see arena.Release) and the detector's owner check make safe: the
// detector serves the slot's arena index while the peer is live
// (core.Detector.Serve) and refuses any other.
type peerEntry struct {
	// id is the peer's process id while the entry is in the name table,
	// zero otherwise: what tells a walk over the arena that a slot is a
	// member. Guarded by the table lock.
	id neko.ProcessID
	// offset is the estimated peer-minus-local clock offset (nanoseconds)
	// delivery subtracts from the send stamps: 0 without WithSyncClock.
	// Stored before the detector serves the slot.
	offset atomic.Int64
	// det is the peer's detector; its name is the peer's label. ctrl is the
	// interval controller, nil without WithTargetDetection. Both are written
	// only while the slot is neither published nor live.
	det  core.Detector
	ctrl *layers.IntervalController
}

// stop halts the entry's timers: the detector's deadline and the
// controller's evaluation loop. Once the detector has stopped it serves no
// slot, so no delivery reaches it and no deadline is armed; it stays as Stop
// left it, so an expiry already collected for it finds it stopped.
func (e *peerEntry) stop() {
	e.det.Stop()
	if e.ctrl != nil {
		e.ctrl.Stop()
	}
}

// sink is a monitor's one transition listener, shared by every peer's
// detector (whose name is the peer's label): live telemetry, the durable QoS
// store and the user callback, each optional — nil is a no-op.
type sink struct {
	onChange func(peer string, suspected bool, elapsed time.Duration)
	reg      *telemetry.Registry
	qstore   *store.Store
}

func (s *sink) OnSuspect(peer string, at time.Duration) { s.transition(peer, true, at) }

func (s *sink) OnTrust(peer string, at time.Duration) { s.transition(peer, false, at) }

func (s *sink) transition(peer string, suspected bool, at time.Duration) {
	s.reg.RecordTransition(peer, suspected, at)
	s.qstore.Recorder(peer).Transition(suspected, at)
	if s.onChange != nil {
		s.onChange(peer, suspected, at)
	}
}

// MultiMonitor is a running multi-peer UDP failure detector with dynamic
// membership: AddPeer and RemovePeer change the monitored set at runtime
// without dropping the socket or perturbing other peers' timers. All
// methods are safe for concurrent use.
type MultiMonitor struct {
	net *transport.UDPNetwork
	// sender is the endpoint's send side, for the interval controllers.
	sender neko.Sender
	ctx    *neko.Context
	opts   options
	nextID atomic.Int64 // next peer ProcessID; monotonic, never reused
	// The peer table: entries live in an index-addressed arena and the
	// name-keyed open-addressed table maps name hashes to arena indices (see
	// internal/arena). mu guards the table, the arena's bookkeeping and
	// every entry's id.
	mu   sync.RWMutex
	tab  *arena.Map64
	ents *arena.Arena[peerEntry]
	// wheel is the timing wheel every peer deadline runs on; its one lazily
	// started driver goroutine expires them. env is what the detectors
	// share: the wheel as clock, the sink, the timeout floor.
	wheel    *sched.Wheel
	env      *core.DetectorEnv
	listener *sink // every peer's detector reports to it
	// undelivered counts messages from a registered address that reached no
	// detector: they raced their peer's removal or arrived before it went
	// live, or nothing here consumes their type.
	undelivered atomic.Uint64

	// Cluster-level telemetry; every field is nil (a no-op) when the
	// monitor was built without WithTelemetry.
	mPeers       *telemetry.Gauge
	mPeerAdds    *telemetry.Counter
	mPeerRemoves *telemetry.Counter
}

// multiMonitorID is the local process id of the multi-monitor; peers get
// ids above it.
const multiMonitorID neko.ProcessID = 1000

// monitorTick is the monitor's timing-wheel tick: the width of the bucket a
// deadline that shares a slot with an earlier one waits out, so it bounds
// what slot sharing adds to a detection time (§2.3's T_D).
const monitorTick = 100 * time.Microsecond

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
	// Fold the split callbacks once, so the sink carries a single onChange
	// closure.
	o.onChange = foldCallbacks(o.onSuspect, o.onTrust, o.onChange)
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
		net:  net,
		opts: o,
		tab:  arena.NewMap64(o.expectedPeers),
		ents: arena.New[peerEntry](),
	}
	o.qstore.Instrument(o.telemetry)
	if reg := o.telemetry; reg != nil {
		mm.mPeers = reg.Gauge(telemetry.MetricPeers, "Current cluster membership size.")
		mm.mPeerAdds = reg.Counter(telemetry.MetricPeerAdds, "Peers added to the cluster monitor.")
		mm.mPeerRemoves = reg.Counter(telemetry.MetricPeerRemoves, "Peers removed from the cluster monitor.")
		reg.CounterFunc(telemetry.MetricIngestUndelivered,
			"Messages from a registered address that reached no detector: they raced their peer's removal, or nothing consumes their type.",
			func() float64 { return float64(mm.undelivered.Load()) })
	}
	mm.nextID.Store(int64(multiMonitorID) + 1)
	mm.ctx = &neko.Context{ID: multiMonitorID, Clock: net.Clock()}
	var onBatch func(int, time.Duration)
	if reg := o.telemetry; reg != nil {
		lag := reg.Histogram(telemetry.MetricSchedBatchLag,
			"Lateness of an expiry batch: its collection minus its earliest deadline, i.e. how late the driver woke (plus, for a deadline sharing a wheel slot with an earlier one, its wait of under one tick for the slot's boundary visit).", nil)
		onBatch = func(_ int, l time.Duration) { lag.Observe(l.Seconds()) }
	}
	mm.wheel = sched.NewWheel(sched.Config{
		Clock:    net.Clock(),
		Tick:     monitorTick,
		OnBatch:  onBatch,
		InFlight: net.InFlight,
	})
	if reg := o.telemetry; reg != nil {
		reg.GaugeFunc(telemetry.MetricSchedTimers,
			"Deadlines currently queued on the timing wheel.",
			func() float64 { return float64(mm.SchedulerStats().Scheduled) })
		reg.CounterFunc(telemetry.MetricSchedFired,
			"Timing-wheel timers expired.",
			func() float64 { return float64(mm.SchedulerStats().Fired) })
		reg.CounterFunc(telemetry.MetricSchedCascades,
			"Timers migrated between timing-wheel levels.",
			func() float64 { return float64(mm.SchedulerStats().Cascades) })
		reg.GaugeFunc(telemetry.MetricSchedMaxSlot,
			"High-water mark of deadlines sharing one fine wheel slot (one firing tick).",
			func() float64 { return float64(mm.SchedulerStats().MaxSlotOccupancy) })
		reg.CounterFunc(telemetry.MetricSchedSlotsSkipped,
			"Empty wheel slots crossed by bitmap skip-scan instead of probing.",
			func() float64 { return float64(mm.SchedulerStats().SlotsSkipped) })
		reg.CounterFunc(telemetry.MetricSchedWakeups,
			"Wheel advances by the expiry driver: one at an occupied slot's earliest deadline, at most one more at its tick boundary.",
			func() float64 { return float64(mm.SchedulerStats().Wakeups) })
		reg.GaugeFunc(telemetry.MetricSchedFineOccupied,
			"Fine-level wheel slots currently holding deadlines.",
			func() float64 { return float64(mm.SchedulerStats().FineOccupied) })
		reg.GaugeFunc(telemetry.MetricSchedCoarseOccupied,
			"Coarse-level wheel slots currently holding deadlines.",
			func() float64 { return float64(mm.SchedulerStats().CoarseOccupied) })
		reg.GaugeFunc(telemetry.MetricSchedOverflow,
			"Deadlines parked beyond the wheel horizon.",
			func() float64 { return float64(mm.SchedulerStats().OverflowTimers) })
	}
	mm.listener = &sink{onChange: o.onChange, reg: o.telemetry, qstore: o.qstore}
	if mm.env, err = core.NewDetectorEnv(mm.wheel, mm.listener, o.minTimeout); err != nil {
		_ = mm.Close()
		return nil, err
	}
	// The monitor is complete: datagrams may be delivered from here on.
	if mm.sender, err = net.Attach(multiMonitorID, (*ingress)(mm)); err != nil {
		_ = mm.Close()
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

// ingress is the MultiMonitor as its endpoint's receiver: the transport
// delivers each drained batch here, on the socket reader's goroutine.
type ingress MultiMonitor

func (r *ingress) Receive(msg *neko.Message) {
	m := (*MultiMonitor)(r)
	m.deliver(msg, m.ctx.Clock.Now())
}

func (r *ingress) ReceiveBatch(ms []*neko.Message, at time.Duration) {
	m := (*MultiMonitor)(r)
	for _, msg := range ms {
		m.deliver(msg, at)
	}
}

// deliver is the whole path from the transport to a detector: the handle
// found beside the source address is the peer record's arena index, and the
// record's detector decides whether it still serves that index.
func (m *MultiMonitor) deliver(msg *neko.Message, at time.Duration) {
	if msg.Type == neko.MsgHeartbeat {
		idx := arena.Index(msg.Handle)
		if e := m.ents.At(idx); e != nil &&
			e.det.OnHeartbeatFor(uint64(idx), msg.Seq, msg.SentAt-time.Duration(e.offset.Load()), at) {
			return
		}
	}
	m.undelivered.Add(1)
}

// find resolves a name to its arena index. Callers hold mu.
func (m *MultiMonitor) find(h uint64, name string) (arena.Index, bool) {
	return m.tab.Find(h, func(i arena.Index) bool { return m.ents.Get(i).det.Name() == name })
}

// each calls f for every member, under the table's read lock — a detector's
// mutex nests safely inside it.
func (m *MultiMonitor) each(f func(*peerEntry)) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	m.ents.Range(func(_ arena.Index, e *peerEntry) bool {
		if e.id != 0 {
			f(e)
		}
		return true
	})
}

// AddPeer starts monitoring one more peer, identified by the source
// address its heartbeats will arrive from. The peer gets a fresh detector
// and a fresh process id — re-adding a previously removed name never
// resurrects old suspicion state. Names and addresses must be unique
// within the cluster. With WithSyncClock the call blocks for the clock-sync
// exchange and fails if the peer does not answer.
func (m *MultiMonitor) AddPeer(name, addr string) (err error) {
	if name == "" {
		return fmt.Errorf("wanfd: empty peer name")
	}
	h := peerNameHash(name)
	m.mu.Lock()
	if _, dup := m.find(h, name); dup {
		m.mu.Unlock()
		return fmt.Errorf("wanfd: peer %q already monitored", name)
	}
	idx, e := m.ents.Alloc()
	m.mu.Unlock()
	// The slot is reserved, neither live nor published. What follows runs
	// outside the table lock until the publication, so queries and removals
	// contend only with these two short sections. A failure at any later
	// step gives the slot back.
	defer func() {
		if err != nil {
			e.stop()
			e.ctrl = nil
			m.mu.Lock()
			m.ents.Release(idx)
			m.mu.Unlock()
		}
	}()
	id := neko.ProcessID(m.nextID.Add(1) - 1)
	if err := m.build(e, name, id); err != nil {
		return err
	}
	// Transport first, so the sync exchange can reach the peer; live only
	// after it, so the first heartbeat the detector sees is offset-corrected.
	// Heartbeats in between are dropped — loss the detector tolerates.
	if err := m.net.AddPeerHandle(id, addr, uint64(idx)); err != nil {
		return err
	}
	defer func() {
		if err != nil {
			_ = m.net.RemovePeer(id)
		}
	}()
	var off time.Duration
	if m.opts.syncTimeout > 0 {
		if off, err = m.net.SyncWith(id, 8, m.opts.syncTimeout); err != nil {
			return fmt.Errorf("wanfd: clock sync with %s: %w", name, err)
		}
	}
	e.offset.Store(int64(off))
	e.det.Serve(uint64(idx))
	// Publish, unless the name was taken while the peer was being built.
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, dup := m.find(h, name); dup {
		return fmt.Errorf("wanfd: peer %q already monitored", name)
	}
	e.id = id
	m.tab.Put(h, idx)
	m.opts.exportDetector(&e.det)
	// The peer's accuracy window opens with its publication, on the clock
	// its detector stamps transitions with.
	if reg := m.opts.telemetry; reg != nil {
		reg.OpenQoS(name, m.wheel.Now())
	}
	m.mPeerAdds.Inc()
	// Maintained incrementally: Peers() would re-lock the table held here.
	m.mPeers.Add(1)
	return nil
}

// build constructs the peer's detector stack in its slot.
func (m *MultiMonitor) build(e *peerEntry, name string, id neko.ProcessID) error {
	o := &m.opts
	cfg, err := o.detectorConfig(name)
	if err == nil {
		cfg.Env = m.env
		err = e.det.Init(cfg)
	}
	if err != nil || o.targetDetection <= 0 {
		return err
	}
	e.ctrl, err = layers.NewIntervalController(layers.IntervalControllerConfig{
		Detector:        &e.det,
		TargetDetection: o.targetDetection,
		Peer:            id,
	})
	if err != nil {
		return err
	}
	// The controller only sends, straight to the socket, and keeps its timer
	// on the endpoint's clock: wheel occupancy stays one deadline per peer.
	e.ctrl.SetBelow(m.sender)
	return e.ctrl.Init(m.ctx)
}

// RemovePeer stops monitoring a peer and tears its detector down. Other
// peers' detectors and timers are untouched; packets still in flight from
// the removed peer are ignored.
func (m *MultiMonitor) RemovePeer(name string) error {
	h := peerNameHash(name)
	m.mu.Lock()
	var e *peerEntry
	var id neko.ProcessID
	idx, ok := m.tab.Remove(h, func(i arena.Index) bool { return m.ents.Get(i).det.Name() == name })
	if ok {
		e = m.ents.Get(idx)
		id, e.id = e.id, 0
	}
	m.mu.Unlock()
	if !ok {
		return fmt.Errorf("wanfd: unknown peer %q", name)
	}
	// Unregister the address first so new packets stop being attributed,
	// then stop the detector: a packet already past the transport lookup, or
	// an expiry already collected, still reaches this memory and finds a
	// stopped detector that serves no handle. The controller, which points
	// into the slot, has stopped for good before the slot is released.
	_ = m.net.RemovePeer(id)
	e.stop()
	e.ctrl = nil
	m.mPeerRemoves.Inc()
	m.mPeers.Add(-1)
	// Retire the peer's series and close its QoS window so churn does not
	// grow the exposition without bound; re-added names start fresh. Before
	// the release: the series read the slot's detector.
	if reg := m.opts.telemetry; reg != nil {
		reg.DropSeries("peer", name)
		reg.CloseQoS(name)
	}
	m.mu.Lock()
	m.ents.Release(idx)
	m.mu.Unlock()
	return nil
}

// SchedulerStats is a snapshot of the monitor's timing-wheel counters.
type SchedulerStats = sched.Stats

// SchedulerStats snapshots the timing wheel every peer deadline runs on.
func (m *MultiMonitor) SchedulerStats() SchedulerStats { return m.wheel.Stats() }

// SchedulerStatsDetail is SchedulerStats under the name it had while the
// monitor ran one wheel per shard.
//
// Deprecated: the monitor has one wheel; use SchedulerStats.
func (m *MultiMonitor) SchedulerStatsDetail() SchedulerStats { return m.SchedulerStats() }

// view runs f on the named peer's entry — the arena's own record — under
// the table's read lock, and reports whether the peer exists.
func (m *MultiMonitor) view(name string, f func(*peerEntry)) bool {
	h := peerNameHash(name)
	m.mu.RLock()
	defer m.mu.RUnlock()
	idx, ok := m.find(h, name)
	if ok {
		f(m.ents.Get(idx))
	}
	return ok
}

// Suspected reports whether the named peer is currently suspected; unknown
// peers report an error.
func (m *MultiMonitor) Suspected(peer string) (suspected bool, err error) {
	if !m.view(peer, func(e *peerEntry) { suspected = e.det.Suspected() }) {
		return false, fmt.Errorf("wanfd: unknown peer %q", peer)
	}
	return suspected, nil
}

// PeerStatusOf returns one peer's full status; unknown peers report an
// error.
func (m *MultiMonitor) PeerStatusOf(peer string) (st PeerStatus, err error) {
	if !m.view(peer, func(e *peerEntry) { st = m.status(e) }) {
		return PeerStatus{}, fmt.Errorf("wanfd: unknown peer %q", peer)
	}
	return st, nil
}

// status builds the PeerStatus of one live entry.
func (m *MultiMonitor) status(e *peerEntry) PeerStatus {
	d := &e.det
	st := PeerStatus{Peer: d.Name(), Suspected: d.Suspected(), DetectorStats: d.DetectorStats(),
		ClockOffset: time.Duration(e.offset.Load())}
	if m.opts.accrualThreshold > 0 {
		st.Phi = d.Phi()
	} else {
		st.Timeout = time.Duration(e.det.CurrentTimeout() * float64(time.Millisecond))
	}
	return st
}

// Status returns every peer's state, sorted by peer name. Membership may
// change concurrently; the result is a consistent per-peer (not
// cross-peer) snapshot. Statuses are built in one pass over the arena.
func (m *MultiMonitor) Status() []PeerStatus {
	out := make([]PeerStatus, 0, m.Peers())
	m.each(func(e *peerEntry) { out = append(out, m.status(e)) })
	sort.Slice(out, func(i, j int) bool { return out[i].Peer < out[j].Peer })
	return out
}

// Peers returns the current membership size.
func (m *MultiMonitor) Peers() int {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.tab.Len()
}

// Snapshot aggregates the whole cluster: counts by output, summed
// counters, and uptime. It reads every detector but materializes no
// per-peer state — constant allocation regardless of membership size, so
// a stats endpoint polling it stays cheap at 1M peers. SnapshotDetail
// adds the per-peer breakdown.
func (m *MultiMonitor) Snapshot() ClusterSnapshot {
	snap := ClusterSnapshot{Uptime: m.ctx.Clock.Now()}
	m.each(func(e *peerEntry) {
		snap.Peers++
		if e.det.Suspected() {
			snap.Suspected++
		} else {
			snap.Trusted++
		}
		st := e.det.DetectorStats()
		snap.Totals.Heartbeats += st.Heartbeats
		snap.Totals.Stale += st.Stale
		snap.Totals.Suspicions += st.Suspicions
	})
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

// Close stops every detector, shuts the timing wheel down, and releases
// the socket.
func (m *MultiMonitor) Close() error {
	m.each((*peerEntry).stop)
	m.wheel.Close()
	return m.net.Close()
}
