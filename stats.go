package wanfd

import (
	"wanfd/internal/arena"
	"wanfd/internal/transport"
)

// IngestStats is a snapshot of the batched receive pipeline's health
// counters (drain cycles, ring drops, pool misses).
type IngestStats = transport.IngestStats

// EgressStats is a snapshot of the batched send pipeline's health
// counters (flushes, packets, syscalls saved, ring drops, send errors).
type EgressStats = transport.EgressStats

// Stats is the unified monitor snapshot: one coherent, versionable read
// API composing the detector, transport-pipeline and scheduler counters
// that used to require four ad-hoc accessors. The composed accessors
// (DetectorStats, IngestStats, EgressStats, SchedulerStats) remain as
// thin views of the same counters.
//
// Fields a monitor kind does not run are zero: a single-peer Monitor has
// no shard scheduler.
type Stats struct {
	// Detector aggregates the detector counters — one detector's on a
	// single-peer Monitor, summed across peers on a MultiMonitor.
	Detector DetectorStats
	// Ingest is the batched receive pipeline's health counters.
	Ingest IngestStats
	// Egress is the batched send pipeline's health counters.
	Egress EgressStats
	// Scheduler aggregates the shard timing wheels of a cluster monitor.
	Scheduler SchedulerStats
	// Store is the durable QoS store's counters; zero (Enabled false) when
	// no store is attached (WithStore absent).
	Store StoreStats
}

// Stats returns the unified snapshot for this monitor. Scheduler is zero:
// a single-peer monitor drives its one deadline from the detector's own
// timer, not a shard wheel.
func (m *Monitor) Stats() Stats {
	return Stats{
		Detector: m.DetectorStats(),
		Ingest:   m.net.IngestStats(),
		Egress:   m.net.EgressStats(),
		Store:    m.store.Stats(),
	}
}

// IngestStats returns the batched receive pipeline counters.
func (m *Monitor) IngestStats() IngestStats { return m.net.IngestStats() }

// EgressStats returns the batched send pipeline counters.
func (m *Monitor) EgressStats() EgressStats { return m.net.EgressStats() }

// Stats returns the unified snapshot for this cluster monitor; Detector
// sums the per-peer counters (the per-peer breakdown is Status). The sum
// walks the peer arenas in place — no per-peer materialization, so the
// call allocates the same at 1M peers as at 10.
func (m *MultiMonitor) Stats() Stats {
	var det DetectorStats
	for i := range m.shards {
		s := &m.shards[i]
		s.mu.RLock()
		s.ents.Range(func(_ arena.Index, e *peerEntry) bool {
			st := e.det.DetectorStats()
			det.Heartbeats += st.Heartbeats
			det.Stale += st.Stale
			det.Suspicions += st.Suspicions
			return true
		})
		s.mu.RUnlock()
	}
	return Stats{
		Detector:  det,
		Ingest:    m.net.IngestStats(),
		Egress:    m.net.EgressStats(),
		Scheduler: m.SchedulerStats(),
		Store:     m.opts.qstore.Stats(),
	}
}

// IngestStats returns the batched receive pipeline counters.
func (m *MultiMonitor) IngestStats() IngestStats { return m.net.IngestStats() }

// EgressStats returns the batched send pipeline counters.
func (m *MultiMonitor) EgressStats() EgressStats { return m.net.EgressStats() }
