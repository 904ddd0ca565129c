package telemetry

import (
	"sync"
	"time"

	"wanfd/internal/nekostat"
)

// Metric names exported by the instrumented monitor stack. They are
// constants so tests and docs cannot drift from the instrumentation.
const (
	MetricHeartbeats      = "wanfd_heartbeats_total"
	MetricHeartbeatsStale = "wanfd_heartbeats_stale_total"
	MetricHeartbeatsLate  = "wanfd_heartbeats_late_total"
	MetricFreshnessMisses = "wanfd_freshness_misses_total"
	MetricHeartbeatDelay  = "wanfd_heartbeat_delay_seconds"
	MetricPredictorError  = "wanfd_predictor_error_seconds"
	MetricDetectorTimeout = "wanfd_detector_timeout_seconds"
	MetricPeerSuspected   = "wanfd_peer_suspected"

	MetricTransitions = "wanfd_suspicion_transitions_total"
	MetricQoSPA       = "wanfd_qos_pa"
	MetricQoSTM       = "wanfd_qos_tm_seconds"
	MetricQoSTMR      = "wanfd_qos_tmr_seconds"

	MetricPacketsSent     = "wanfd_transport_packets_sent_total"
	MetricPacketsReceived = "wanfd_transport_packets_received_total"
	MetricDecodeErrors    = "wanfd_transport_decode_errors_total"
	MetricPacketsDropped  = "wanfd_transport_packets_dropped_total"
	MetricSendErrors      = "wanfd_transport_send_errors_total"

	MetricIngestBatchSize     = "wanfd_ingest_batch_size"
	MetricIngestDrains        = "wanfd_ingest_drain_cycles_total"
	MetricIngestUnknownSource = "wanfd_ingest_unknown_source_total"
	MetricIngestKernelDrops   = "wanfd_ingest_kernel_drops_total"
	MetricIngestUndelivered   = "wanfd_ingest_undelivered_total"

	MetricEgressSendErrors = "wanfd_egress_send_errors_total"

	MetricPeers       = "wanfd_cluster_peers"
	MetricPeerAdds    = "wanfd_cluster_peer_adds_total"
	MetricPeerRemoves = "wanfd_cluster_peer_removes_total"

	MetricSchedTimers   = "wanfd_sched_timers"
	MetricSchedFired    = "wanfd_sched_timers_fired_total"
	MetricSchedCascades = "wanfd_sched_cascades_total"
	MetricSchedMaxSlot  = "wanfd_sched_max_slot_occupancy"
	MetricSchedBatchLag = "wanfd_sched_batch_lag_seconds"
	// Occupancy-bitmap instrumentation: slots the skip-scan crossed
	// without probing, wheel advances by the monitor's expiry driver, and the
	// per-level occupied-slot / overflow gauges the skips derive from.
	MetricSchedSlotsSkipped   = "wanfd_sched_slots_skipped_total"
	MetricSchedWakeups        = "wanfd_sched_wakeups_total"
	MetricSchedFineOccupied   = "wanfd_sched_fine_slots_occupied"
	MetricSchedCoarseOccupied = "wanfd_sched_coarse_slots_occupied"
	MetricSchedOverflow       = "wanfd_sched_overflow_timers"

	MetricStoreRecords  = "wanfd_store_records_total"
	MetricStoreDropped  = "wanfd_store_dropped_total"
	MetricStoreIOErrors = "wanfd_store_io_errors_total"
	MetricStoreSegments = "wanfd_store_segments"
	MetricStoreBytes    = "wanfd_store_bytes"
	MetricStoreQueue    = "wanfd_store_queue_depth"
)

// The per-peer families, in exposition order. A monitor writes them all
// with one collector (CollectPeers); the two histograms among them are the
// registry-wide aggregates the peers' bundles feed.
var peerDescs = [...]Desc{
	{MetricHeartbeatsLate, "Heartbeats received while the peer was suspected.", TypeCounter},
	{MetricHeartbeatDelay, "Measured one-way heartbeat delay in seconds, all peers.", TypeHistogram},
	{MetricPredictorError, "Absolute delay prediction error in seconds, all peers.", TypeHistogram},
	{MetricHeartbeats, "Heartbeats processed, including stale ones.", TypeCounter},
	{MetricHeartbeatsStale, "Reordered or duplicate heartbeats.", TypeCounter},
	{MetricFreshnessMisses, "Freshness points passed without a fresh heartbeat.", TypeCounter},
	{MetricDetectorTimeout, "Current adaptive timeout delta in seconds.", TypeGauge},
	{MetricPeerSuspected, "Detector output: 1 suspected, 0 trusted.", TypeGauge},
	{MetricTransitions, "Suspicion transitions, both directions.", TypeCounter},
	{MetricQoSPA, "Live query accuracy probability P_A per peer.", TypeGauge},
	{MetricQoSTM, "Live mean mistake duration E[T_M] in seconds.", TypeGauge},
	{MetricQoSTMR, "Live mean mistake recurrence E[T_MR] in seconds.", TypeGauge},
}

// PeerSample is one peer's values in the per-peer families: its detector's
// counters, timeout and output, and its bundle's (DetectorMetrics.Sample).
type PeerSample struct {
	Peer                          string
	Heartbeats, Stale, Suspicions uint64
	// Timeout is the detector's current timeout δ in seconds.
	Timeout   float64
	Suspected bool
	// Late, Transitions, PA, TM and TMR are the bundle's.
	Late, Transitions uint64
	PA, TM, TMR       float64
}

// CollectPeers registers the per-peer families with rows as their one
// source: at each scrape rows returns every peer's sample, in exposition
// order, and each sample is written whole — all ten of its lines or none.
// No-op on a nil registry.
func (r *Registry) CollectPeers(rows func() []PeerSample) {
	if r == nil {
		return
	}
	r.Collect(func(s *Scrape) {
		for _, p := range rows() {
			s.Counter(0, p.Late, "peer", p.Peer)
			// 1 and 2 are the aggregate histograms.
			s.Counter(3, p.Heartbeats, "peer", p.Peer)
			s.Counter(4, p.Stale, "peer", p.Peer)
			s.Counter(5, p.Suspicions, "peer", p.Peer)
			s.Gauge(6, p.Timeout, "peer", p.Peer)
			s.Gauge(7, boolValue(p.Suspected), "peer", p.Peer)
			s.Counter(8, p.Transitions, "peer", p.Peer)
			s.Gauge(9, p.PA, "peer", p.Peer)
			s.Gauge(10, p.TM, "peer", p.Peer)
			s.Gauge(11, p.TMR, "peer", p.Peer)
		}
	}, peerDescs[:]...)
}

func boolValue(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// DetectorMetrics is one peer's bundle, fed by that peer's detector: the
// heartbeat path updates the two delay histograms and the late-arrival
// count, and every output transition goes through Transition into the
// event ring and the peer's accuracy window. It holds only what the
// detector does not already track itself, as plain fields the monitor's
// collector reads at scrape time (Sample); the registry keeps no reference
// to it, so it goes with its detector.
//
// The histograms are deliberately aggregate (unlabeled, shared by every
// peer of a registry): per-peer histogram families are a cardinality
// trap at cluster scale — 13 bucket series per peer — and the per-peer
// working set they add (a few cache lines per peer per heartbeat)
// dominates the instrumentation cost at thousands of peers. Per-peer
// detail lives in the cheap counter/gauge series instead.
//
// The histogram handles are per-detector BatchObservers rather than the
// shared histograms directly: the detector already serializes heartbeat
// processing under its own mutex, so buffering observations there and
// flushing every batchFlushEvery-th one replaces per-heartbeat atomic
// adds with plain adds. All fields are nil-safe, so the bundle (and the
// whole pointer) may be nil when telemetry is disabled — the detector
// then pays one branch per heartbeat.
//
//fdlint:nilsafe
type DetectorMetrics struct {
	// Late counts heartbeats that arrived while the peer was suspected —
	// deliveries past their freshness point.
	Late Counter
	// Delay observes measured one-way heartbeat delays, in seconds,
	// aggregated over all peers.
	Delay *BatchObserver
	// PredictorError observes |observed − predicted| delay, in seconds,
	// aggregated over all peers.
	PredictorError *BatchObserver

	events *EventRing
	peer   string

	// mu guards the accuracy window: whether it is open, its accountant,
	// the transitions it took and P_A as of the latest of them.
	mu          sync.Mutex
	open        bool
	transitions uint64
	acc         nekostat.Accountant
	pa          float64
}

// DetectorMetrics builds the detector handle bundle for one peer: the
// histograms are the registry-wide aggregates, and the accuracy window
// stays closed until OpenQoS. Returns nil on a nil registry, which disables
// detector instrumentation entirely.
func (r *Registry) DetectorMetrics(peer string) *DetectorMetrics {
	if r == nil {
		return nil
	}
	delay, predErr := &peerDescs[1], &peerDescs[2]
	return &DetectorMetrics{
		Delay:          r.Histogram(delay.Name, delay.Help, nil).Batch(),
		PredictorError: r.Histogram(predErr.Name, predErr.Help, nil).Batch(),
		events:         r.events,
		peer:           peer,
	}
}

// OpenQoS opens a fresh accuracy window at at; a live monitor opens it when
// it publishes the peer. Every monitored process is taken to be up (a live
// monitor has no crash ground truth), so every completed suspicion is a
// mistake. No-op on a nil bundle.
func (m *DetectorMetrics) OpenQoS(at time.Duration) {
	if m == nil {
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	m.open, m.transitions, m.acc = true, 0, nekostat.Accountant{From: at}
	m.pa = m.acc.PA(at)
}

// Transition records one output transition of the peer's detector in the
// event ring and, inside the open window, feeds the accountant, counts it
// and evaluates P_A at it. It takes the ring's lock and the window's, and
// allocates nothing. Outside a window only the ring records it. No-op on a
// nil bundle.
func (m *DetectorMetrics) Transition(suspected bool, at time.Duration) {
	if m == nil {
		return
	}
	kind := nekostat.KindEndSuspect
	if suspected {
		kind = nekostat.KindStartSuspect
	}
	m.events.Record(nekostat.Event{Kind: kind, At: at, Source: m.peer})
	m.mu.Lock()
	defer m.mu.Unlock()
	if !m.open {
		return
	}
	if suspected {
		m.acc.OnSuspect(m.peer, at)
	} else {
		m.acc.OnTrust(m.peer, at)
	}
	m.transitions++
	m.pa = m.acc.PA(at)
}

// Window returns a copy of the peer's accountant; open is false before
// OpenQoS (and on a nil bundle).
func (m *DetectorMetrics) Window() (a nekostat.Accountant, open bool) {
	if m == nil {
		return a, false
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.acc, m.open
}

// Sample fills p's bundle fields: the late count, and the window's
// transition count, P_A as of its latest transition and the running
// means. No-op on a nil bundle.
func (m *DetectorMetrics) Sample(p *PeerSample) {
	if m == nil {
		return
	}
	p.Late = m.Late.Value()
	m.mu.Lock()
	defer m.mu.Unlock()
	p.Transitions, p.PA = m.transitions, m.pa
	p.TM, p.TMR = m.acc.Means()
}

// DetectorFuncs registers a collector writing one peer's detector families
// — heartbeat and stale counts, suspicion starts (the freshness-point
// misses), the adaptive timeout and the boolean output — from callbacks
// run at scrape time. It keeps a collector per peer, so it suits a fixed
// set of peers; a monitor writes all its peers with CollectPeers instead.
// No-op on a nil registry.
func (r *Registry) DetectorFuncs(peer string, stats func() (heartbeats, stale, suspicions uint64), timeoutSec func() float64, suspected func() bool) {
	if r == nil {
		return
	}
	r.Collect(func(s *Scrape) {
		h, st, sus := stats()
		s.Counter(0, h, "peer", peer)
		s.Counter(1, st, "peer", peer)
		s.Counter(2, sus, "peer", peer)
		s.Gauge(3, timeoutSec(), "peer", peer)
		s.Gauge(4, boolValue(suspected()), "peer", peer)
	}, peerDescs[3:8]...)
}
