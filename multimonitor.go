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
	// ClockOffset is the peer-minus-local clock offset the clock-sync
	// exchange estimated when the peer joined; its detector subtracts it from
	// each heartbeat's send stamp (0 without WithSyncClock).
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
// freshness-point detector by value — mutex, deadline, counters, wheel
// timer handle, and the state of the paper's fixed-size predictors and
// margins included — so a peer on one of those (LAST, MEAN or LPF with any
// of the six margins; the default is LAST+JAC_med) is this slot alone, with
// no heap object of its own. ARIMA, WINMEAN and MEDIAN predictors, and
// φ-accrual's inter-arrival window, sit behind the detector's one pointer.
// Delivery reaches the slot without the table lock, possibly after the slot
// has changed hands, which the arena's type-stable memory (never moved,
// freed or zeroed: see arena.Release) and the detector's owner check make
// safe: the detector serves the slot's arena index while the peer is live
// (core.Detector.Serve) and refuses any other.
type peerEntry struct {
	// addr is the peer's address, the key of its one transport table entry,
	// while the entry is in the name table, zero otherwise: what tells a
	// walk over the arena that a slot is a member. Guarded by the table
	// lock.
	addr transport.Addr
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

// MultiMonitor is a running multi-peer UDP failure detector with dynamic
// membership: AddPeer and RemovePeer change the monitored set at runtime
// without dropping the socket or perturbing other peers' timers. All
// methods are safe for concurrent use.
type MultiMonitor struct {
	net  *transport.UDPNetwork
	ctx  *neko.Context
	opts options
	// The peer table: entries live in an index-addressed arena and the
	// name-keyed open-addressed table maps name hashes to arena indices (see
	// internal/arena). mu guards the table, the arena's bookkeeping and
	// every entry's addr.
	mu   sync.RWMutex
	tab  *arena.Map64
	ents *arena.Arena[peerEntry]
	// wheel is the timing wheel every peer deadline runs on; its one lazily
	// started driver goroutine expires them. env is what the detectors
	// share: the wheel as clock, the user callback, the timeout floor.
	wheel *sched.Wheel
	env   *core.DetectorEnv
	// undelivered counts messages from a registered address that reached no
	// detector: they raced their peer's removal or arrived before it went
	// live, or nothing here consumes their type. adds and removes count
	// membership changes.
	undelivered, adds, removes atomic.Uint64
}

// multiMonitorID is the local process id of the multi-monitor. Its peers
// have no ids: the transport stamps their messages with their records'
// handles.
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
	// Before anything registers a series: a registry serves one monitor.
	if err := o.telemetry.Claim(); err != nil {
		return nil, err
	}
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
	o.telemetry.Collect(func(s *telemetry.Scrape) {
		s.Gauge(0, float64(mm.Peers()))
		s.Counter(1, mm.adds.Load())
		s.Counter(2, mm.removes.Load())
		s.Counter(3, mm.undelivered.Load())
	},
		telemetry.Desc{Name: telemetry.MetricPeers, Help: "Current cluster membership size.", Type: telemetry.TypeGauge},
		telemetry.Desc{Name: telemetry.MetricPeerAdds, Help: "Peers added to the cluster monitor.", Type: telemetry.TypeCounter},
		telemetry.Desc{Name: telemetry.MetricPeerRemoves, Help: "Peers removed from the cluster monitor.", Type: telemetry.TypeCounter},
		telemetry.Desc{Name: telemetry.MetricIngestUndelivered, Help: "Messages from a registered address that reached no detector: they raced their peer's removal, or nothing consumes their type.", Type: telemetry.TypeCounter},
	)
	mm.ctx = &neko.Context{ID: multiMonitorID, Clock: net.Clock()}
	mm.wheel = sched.NewWheel(sched.Config{
		Clock:     net.Clock(),
		Tick:      monitorTick,
		Telemetry: o.telemetry,
		InFlight:  net.InFlight,
	})
	o.telemetry.CollectPeers(mm.peerSamples)
	if mm.env, err = core.NewDetectorEnv(mm.wheel, listener(o.onSuspect, o.onTrust, o.onChange), o.minTimeout); err != nil {
		_ = mm.Close()
		return nil, err
	}
	// The monitor is complete: datagrams may be delivered from here on.
	if _, err = net.Attach(multiMonitorID, (*ingress)(mm)); err != nil {
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
			e.det.OnHeartbeatFor(uint64(idx), msg.Seq, msg.SentAt, at) {
			return
		}
	}
	m.undelivered.Add(1)
}

// peerSender is an interval controller's sender: its commands go to its
// peer's address while the peer is registered there under its handle, and
// are dropped and counted by the transport once it is not.
type peerSender struct {
	net *transport.UDPNetwork
	a   transport.Addr
	h   uint64
}

func (s peerSender) Send(msg *neko.Message) { s.net.SendTo(msg, s.a, s.h) }

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
		if e.addr != 0 {
			f(e)
		}
		return true
	})
}

// AddPeer starts monitoring one more peer, identified by the source
// address its heartbeats will arrive from. The peer gets a fresh detector
// — re-adding a previously removed name never resurrects old suspicion
// state. Names and addresses must be unique within the cluster. With
// WithSyncClock the call blocks for the clock-sync exchange and fails if
// the peer does not answer. A call that fails leaves nothing of the peer
// behind: no series, no accuracy window, no store name.
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
	// The slot is reserved; nothing is written to it before the publication,
	// and no table lock is held until then, so queries and removals contend
	// only with these two short sections. A failure gives the slot back.
	defer func() {
		if err != nil {
			m.mu.Lock()
			m.ents.Release(idx)
			m.mu.Unlock()
		}
	}()
	o := &m.opts
	cfg, err := o.detectorConfig(name)
	if err != nil {
		return err
	}
	// Transport first, so the sync exchange can reach the peer; live only
	// after it, so the first heartbeat the detector sees is offset-corrected.
	// Heartbeats in between are dropped — loss the detector tolerates.
	a, err := m.net.AddPeerHandle(addr, uint64(idx))
	if err != nil {
		return err
	}
	defer func() {
		if err != nil {
			m.net.RemovePeerHandle(a, uint64(idx))
		}
	}()
	var ctrl *layers.IntervalController
	if o.targetDetection > 0 {
		ctrl, err = layers.NewIntervalController(layers.IntervalControllerConfig{
			Detector:        &e.det,
			TargetDetection: o.targetDetection,
		})
		if err != nil {
			return err
		}
		// It only sends, straight to the socket by the peer's address, on
		// the endpoint's clock: wheel occupancy stays one deadline per peer.
		ctrl.SetBelow(peerSender{m.net, a, uint64(idx)})
	}
	var off time.Duration
	if o.syncTimeout > 0 {
		if off, err = m.net.SyncWith(a, uint64(idx), 8, o.syncTimeout); err != nil {
			return fmt.Errorf("wanfd: clock sync with %s: %w", name, err)
		}
	}
	// Publish, unless the name was taken meanwhile. All that is named after
	// the peer is made here: the detector with its taps and its accuracy
	// window, opened on the detector's clock before it goes live. Its series
	// are read from the table at scrape time from here on.
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, dup := m.find(h, name); dup {
		return fmt.Errorf("wanfd: peer %q already monitored", name)
	}
	cfg.Env, cfg.Metrics, cfg.Sample = m.env, o.telemetry.DetectorMetrics(name), o.qstore.Recorder(name)
	if err := e.det.Init(cfg); err != nil {
		return err // unreachable: validate rejects every recipe Init would
	}
	cfg.Metrics.OpenQoS(m.wheel.Now())
	e.det.Serve(uint64(idx), off)
	e.addr = a
	m.tab.Put(h, idx)
	// The controller's evaluation reads the detector, so it starts last;
	// starting it only arms its timer, which cannot fail.
	if e.ctrl = ctrl; ctrl != nil {
		_ = ctrl.Init(m.ctx)
	}
	m.adds.Add(1)
	return nil
}

// RemovePeer stops monitoring a peer and tears its detector down. Other
// peers' detectors and timers are untouched; packets still in flight from
// the removed peer are ignored.
func (m *MultiMonitor) RemovePeer(name string) error {
	h := peerNameHash(name)
	m.mu.Lock()
	var e *peerEntry
	var a transport.Addr
	idx, ok := m.tab.Remove(h, func(i arena.Index) bool { return m.ents.Get(i).det.Name() == name })
	if ok {
		e = m.ents.Get(idx)
		a, e.addr = e.addr, 0
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
	m.net.RemovePeerHandle(a, uint64(idx))
	e.stop()
	e.ctrl = nil
	m.removes.Add(1)
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
// monitor ran one wheel per shard. The benchmark harness still calls it.
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
		ClockOffset: d.ClockOffset()}
	if m.opts.accrualThreshold > 0 {
		st.Phi = d.Phi()
	} else {
		st.Timeout = time.Duration(e.det.CurrentTimeout() * float64(time.Millisecond))
	}
	return st
}

// peerSamples returns every member's sample of the per-peer telemetry
// families, sorted by name: the monitor's per-peer collector. It walks the
// table as Status does, reading each detector and then its bundle, one
// lock at a time.
func (m *MultiMonitor) peerSamples() []telemetry.PeerSample {
	buf := make([]telemetry.PeerSample, 0, m.Peers())
	m.each(func(e *peerEntry) {
		d := &e.det
		st := d.DetectorStats()
		p := telemetry.PeerSample{Peer: d.Name(), Heartbeats: st.Heartbeats, Stale: st.Stale,
			Suspicions: st.Suspicions, Timeout: d.CurrentTimeout() / 1e3, Suspected: d.Suspected()}
		d.Metrics().Sample(&p)
		buf = append(buf, p)
	})
	sort.Slice(buf, func(i, j int) bool { return buf[i].Peer < buf[j].Peer })
	return buf
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
