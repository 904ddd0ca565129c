package wanfd

import "wanfd/internal/transport"

// IngestStats is a snapshot of the receive pipeline's health counters
// (drain cycles, pool misses, unknown-source discards, kernel drops).
type IngestStats = transport.IngestStats

// EgressStats is a snapshot of the send path's counters (datagrams
// written, datagrams the socket refused).
type EgressStats = transport.EgressStats

// Stats is the unified monitor snapshot: one coherent, versionable read
// API composing the detector, transport-pipeline, scheduler and store
// counters. A single-peer Monitor is a one-peer cluster, so every section
// is live on both monitor kinds.
type Stats struct {
	// Detector aggregates the detector counters — one detector's on a
	// single-peer Monitor, summed across peers on a MultiMonitor.
	Detector DetectorStats
	// Ingest is the batched receive pipeline's health counters.
	Ingest IngestStats
	// Egress is the send path's counters.
	Egress EgressStats
	// Scheduler is the counters of the timing wheel the detector deadlines
	// run on.
	Scheduler SchedulerStats
	// Store is the durable QoS store's counters; zero (Enabled false) when
	// no store is attached (WithStore absent).
	Store StoreStats
}

// Stats returns the unified snapshot for this monitor.
func (m *Monitor) Stats() Stats { return m.mm.Stats() }

// Stats returns the unified snapshot for this cluster monitor; Detector
// sums the per-peer counters (the per-peer breakdown is Status). The sum
// walks the peer arena in place — no per-peer materialization, so the
// call allocates the same at 1M peers as at 10.
func (m *MultiMonitor) Stats() Stats {
	var det DetectorStats
	m.each(func(e *peerEntry) {
		st := e.detector().DetectorStats()
		det.Heartbeats += st.Heartbeats
		det.Stale += st.Stale
		det.Suspicions += st.Suspicions
	})
	return Stats{
		Detector:  det,
		Ingest:    m.net.IngestStats(),
		Egress:    m.net.EgressStats(),
		Scheduler: m.SchedulerStats(),
		Store:     m.opts.qstore.Stats(),
	}
}
