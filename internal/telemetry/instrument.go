package telemetry

import (
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

// DetectorMetrics is the handle bundle the freshness-point detector hot
// path updates. It holds only what the detector does not already track
// itself — the two delay histograms and the late-arrival counter;
// everything derivable from the detector's own state (lifetime counters,
// current timeout, suspicion output) is exported at scrape time via
// DetectorFuncs instead, keeping the heartbeat path at a handful of
// atomic adds.
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
	Late *Counter
	// Delay observes measured one-way heartbeat delays, in seconds,
	// aggregated over all peers.
	Delay *BatchObserver
	// PredictorError observes |observed − predicted| delay, in seconds,
	// aggregated over all peers.
	PredictorError *BatchObserver
}

// DetectorMetrics builds the detector handle bundle for one peer: the
// late counter is labeled per peer, the histograms are the registry-wide
// aggregates. Returns nil on a nil registry, which disables detector
// instrumentation entirely.
func (r *Registry) DetectorMetrics(peer string) *DetectorMetrics {
	if r == nil {
		return nil
	}
	return &DetectorMetrics{
		Late:           r.Counter(MetricHeartbeatsLate, "Heartbeats received while the peer was suspected.", "peer", peer),
		Delay:          r.Histogram(MetricHeartbeatDelay, "Measured one-way heartbeat delay in seconds, all peers.", nil).Batch(),
		PredictorError: r.Histogram(MetricPredictorError, "Absolute delay prediction error in seconds, all peers.", nil).Batch(),
	}
}

// DetectorFuncs registers the scrape-time per-peer series that mirror
// state the detector already maintains under its own lock: heartbeat and
// stale counts, suspicion starts (the freshness-point misses), the
// adaptive timeout and the boolean output. Sampling them at scrape time
// costs the heartbeat hot path nothing. The callbacks must be safe to call
// from the scrape goroutine (and after the detector stops); they are
// dropped with the rest of the peer's series by DropSeries. No-op on a nil
// registry.
func (r *Registry) DetectorFuncs(peer string, stats func() (heartbeats, stale, suspicions uint64), timeoutSec func() float64, suspected func() bool) {
	if r == nil {
		return
	}
	r.CounterFunc(MetricHeartbeats, "Heartbeats processed, including stale ones.", func() float64 {
		h, _, _ := stats()
		return float64(h)
	}, "peer", peer)
	r.CounterFunc(MetricHeartbeatsStale, "Reordered or duplicate heartbeats.", func() float64 {
		_, s, _ := stats()
		return float64(s)
	}, "peer", peer)
	r.CounterFunc(MetricFreshnessMisses, "Freshness points passed without a fresh heartbeat.", func() float64 {
		_, _, s := stats()
		return float64(s)
	}, "peer", peer)
	r.GaugeFunc(MetricDetectorTimeout, "Current adaptive timeout delta in seconds.", timeoutSec, "peer", peer)
	r.GaugeFunc(MetricPeerSuspected, "Detector output: 1 suspected, 0 trusted.", func() float64 {
		if suspected() {
			return 1
		}
		return 0
	}, "peer", peer)
}

// RecordTransition is the one-stop suspicion-transition sink: it appends
// the event to the ring, counts it, and, inside the peer's accuracy window
// (OpenQoS), feeds the peer's accountant and refreshes its QoS gauges with
// P_A evaluated at this transition. Inside a window it allocates nothing:
// the series were resolved when the window opened. A transition outside
// any window is counted into the peer's series when its window opens, so
// one after CloseQoS never re-creates a removed peer's series. Nil-safe.
func (r *Registry) RecordTransition(peer string, suspected bool, at time.Duration) {
	if r == nil {
		return
	}
	kind := nekostat.KindEndSuspect
	if suspected {
		kind = nekostat.KindStartSuspect
	}
	r.events.Record(nekostat.Event{Kind: kind, At: at, Source: peer})
	r.qosMu.Lock()
	p := r.qos[peer]
	if p == nil {
		r.unopened[peer]++
		r.qosMu.Unlock()
		return
	}
	if suspected {
		p.acc.OnSuspect(peer, at)
	} else {
		p.acc.OnTrust(peer, at)
	}
	q := p.acc
	r.qosMu.Unlock()
	p.transitions.Inc()
	tm, tmr := q.Means()
	p.pa.Set(q.PA(at))
	p.tm.Set(tm)
	p.tmr.Set(tmr)
}
