package wanfd

import (
	"strings"
	"testing"

	"wanfd/internal/telemetry"
)

// familyLines returns the # HELP and # TYPE lines of a scrape of reg, in
// exposition order.
func familyLines(t *testing.T, reg *telemetry.Registry) []string {
	t.Helper()
	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, line := range strings.Split(b.String(), "\n") {
		if strings.HasPrefix(line, "# ") {
			out = append(out, line)
		}
	}
	return out
}

// TestMonitorSeriesFamilies pins the families a monitor built with
// WithTelemetry and WithStore exports with one peer: their names, help
// strings and types, in exposition order — the transport's series, the
// store's, the cluster's, the timing wheel's, then the per-peer families.
func TestMonitorSeriesFamilies(t *testing.T) {
	addrs := freeUDPPorts(t, 2)
	st, err := OpenStore(StoreConfig{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	reg := telemetry.NewRegistry(16)
	mon, err := NewMultiMonitor(addrs[0], WithTelemetry(reg), WithStore(st), WithPeer("alpha", addrs[1]))
	if err != nil {
		t.Fatal(err)
	}
	defer mon.Close()
	got := familyLines(t, reg)
	want := strings.Split(strings.TrimSpace(wantFamilies), "\n")
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Errorf("families:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}

const wantFamilies = `
# HELP wanfd_transport_packets_sent_total UDP packets sent.
# TYPE wanfd_transport_packets_sent_total counter
# HELP wanfd_transport_packets_received_total Valid UDP packets received.
# TYPE wanfd_transport_packets_received_total counter
# HELP wanfd_transport_decode_errors_total Malformed inbound packets discarded.
# TYPE wanfd_transport_decode_errors_total counter
# HELP wanfd_transport_packets_dropped_total Packets discarded without delivery.
# TYPE wanfd_transport_packets_dropped_total counter
# HELP wanfd_transport_send_errors_total Messages lost to encode or socket write failures.
# TYPE wanfd_transport_send_errors_total counter
# HELP wanfd_egress_send_errors_total datagrams the socket refused (write errors and short writes)
# TYPE wanfd_egress_send_errors_total counter
# HELP wanfd_ingest_batch_size datagrams drained per readiness wakeup
# TYPE wanfd_ingest_batch_size histogram
# HELP wanfd_ingest_drain_cycles_total completed ingest drain cycles
# TYPE wanfd_ingest_drain_cycles_total counter
# HELP wanfd_ingest_unknown_source_total datagrams discarded because their source address is not a registered peer
# TYPE wanfd_ingest_unknown_source_total counter
# HELP wanfd_ingest_kernel_drops_total datagrams the kernel dropped on full reader socket buffers
# TYPE wanfd_ingest_kernel_drops_total counter
# HELP wanfd_store_records_total Records durably framed by the QoS store.
# TYPE wanfd_store_records_total counter
# HELP wanfd_store_dropped_total Store records lost to ring overflow or write errors.
# TYPE wanfd_store_dropped_total counter
# HELP wanfd_store_io_errors_total Store write, fsync and delete failures.
# TYPE wanfd_store_io_errors_total counter
# HELP wanfd_store_segments Store segments on disk, sealed plus active.
# TYPE wanfd_store_segments gauge
# HELP wanfd_store_bytes Store bytes on disk, sealed plus active.
# TYPE wanfd_store_bytes gauge
# HELP wanfd_store_queue_depth Store hot-path ring occupancy.
# TYPE wanfd_store_queue_depth gauge
# HELP wanfd_cluster_peers Current cluster membership size.
# TYPE wanfd_cluster_peers gauge
# HELP wanfd_cluster_peer_adds_total Peers added to the cluster monitor.
# TYPE wanfd_cluster_peer_adds_total counter
# HELP wanfd_cluster_peer_removes_total Peers removed from the cluster monitor.
# TYPE wanfd_cluster_peer_removes_total counter
# HELP wanfd_ingest_undelivered_total Messages from a registered address that reached no detector: they raced their peer's removal, or nothing consumes their type.
# TYPE wanfd_ingest_undelivered_total counter
# HELP wanfd_sched_batch_lag_seconds Lateness of an expiry batch: its collection minus its earliest deadline, i.e. how late the driver woke (plus, for a deadline sharing a wheel slot with an earlier one, its wait of under one tick for the slot's boundary visit).
# TYPE wanfd_sched_batch_lag_seconds histogram
# HELP wanfd_sched_timers Deadlines currently queued on the timing wheel.
# TYPE wanfd_sched_timers gauge
# HELP wanfd_sched_timers_fired_total Timing-wheel timers expired.
# TYPE wanfd_sched_timers_fired_total counter
# HELP wanfd_sched_cascades_total Timers migrated between timing-wheel levels.
# TYPE wanfd_sched_cascades_total counter
# HELP wanfd_sched_max_slot_occupancy High-water mark of deadlines sharing one fine wheel slot (one firing tick).
# TYPE wanfd_sched_max_slot_occupancy gauge
# HELP wanfd_sched_slots_skipped_total Empty wheel slots crossed by bitmap skip-scan instead of probing.
# TYPE wanfd_sched_slots_skipped_total counter
# HELP wanfd_sched_wakeups_total Wheel advances by the expiry driver: one at an occupied slot's earliest deadline, at most one more at its tick boundary.
# TYPE wanfd_sched_wakeups_total counter
# HELP wanfd_sched_fine_slots_occupied Fine-level wheel slots currently holding deadlines.
# TYPE wanfd_sched_fine_slots_occupied gauge
# HELP wanfd_sched_coarse_slots_occupied Coarse-level wheel slots currently holding deadlines.
# TYPE wanfd_sched_coarse_slots_occupied gauge
# HELP wanfd_sched_overflow_timers Deadlines parked beyond the wheel horizon.
# TYPE wanfd_sched_overflow_timers gauge
# HELP wanfd_heartbeats_late_total Heartbeats received while the peer was suspected.
# TYPE wanfd_heartbeats_late_total counter
# HELP wanfd_heartbeat_delay_seconds Measured one-way heartbeat delay in seconds, all peers.
# TYPE wanfd_heartbeat_delay_seconds histogram
# HELP wanfd_predictor_error_seconds Absolute delay prediction error in seconds, all peers.
# TYPE wanfd_predictor_error_seconds histogram
# HELP wanfd_heartbeats_total Heartbeats processed, including stale ones.
# TYPE wanfd_heartbeats_total counter
# HELP wanfd_heartbeats_stale_total Reordered or duplicate heartbeats.
# TYPE wanfd_heartbeats_stale_total counter
# HELP wanfd_freshness_misses_total Freshness points passed without a fresh heartbeat.
# TYPE wanfd_freshness_misses_total counter
# HELP wanfd_detector_timeout_seconds Current adaptive timeout delta in seconds.
# TYPE wanfd_detector_timeout_seconds gauge
# HELP wanfd_peer_suspected Detector output: 1 suspected, 0 trusted.
# TYPE wanfd_peer_suspected gauge
# HELP wanfd_suspicion_transitions_total Suspicion transitions, both directions.
# TYPE wanfd_suspicion_transitions_total counter
# HELP wanfd_qos_pa Live query accuracy probability P_A per peer.
# TYPE wanfd_qos_pa gauge
# HELP wanfd_qos_tm_seconds Live mean mistake duration E[T_M] in seconds.
# TYPE wanfd_qos_tm_seconds gauge
# HELP wanfd_qos_tmr_seconds Live mean mistake recurrence E[T_MR] in seconds.
# TYPE wanfd_qos_tmr_seconds gauge
`

// TestRegistryServesOneMonitor builds a second monitor, both ways, on a
// registry that already serves one: both constructions fail, and the first
// monitor's exposition is what it was.
func TestRegistryServesOneMonitor(t *testing.T) {
	addrs := freeUDPPorts(t, 4)
	reg := telemetry.NewRegistry(16)
	mon, err := NewMultiMonitor(addrs[0], WithTelemetry(reg), WithPeer("alpha", addrs[1]))
	if err != nil {
		t.Fatal(err)
	}
	defer mon.Close()
	scrape := func() string {
		t.Helper()
		var b strings.Builder
		if err := reg.WritePrometheus(&b); err != nil {
			t.Fatal(err)
		}
		return b.String()
	}
	before := scrape()
	if m, err := NewMultiMonitor(addrs[2], WithTelemetry(reg), WithPeer("beta", addrs[3])); err == nil {
		m.Close()
		t.Error("a second NewMultiMonitor on a registry that serves a monitor succeeded")
	}
	if m, err := NewMonitor(addrs[2], addrs[3], WithTelemetry(reg)); err == nil {
		m.Close()
		t.Error("a NewMonitor on a registry that serves a monitor succeeded")
	}
	if after := scrape(); after != before {
		t.Errorf("the failed constructions changed the first monitor's exposition:\n%s\nwas:\n%s", after, before)
	}
}

// TestSharedStoreInEveryRegistry attaches one store to two monitors, each
// with its own registry: the store's series appear in both.
func TestSharedStoreInEveryRegistry(t *testing.T) {
	addrs := freeUDPPorts(t, 2)
	st, err := OpenStore(StoreConfig{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	for i, addr := range addrs {
		reg := telemetry.NewRegistry(16)
		mon, err := NewMultiMonitor(addr, WithTelemetry(reg), WithStore(st))
		if err != nil {
			t.Fatal(err)
		}
		defer mon.Close()
		var b strings.Builder
		if err := reg.WritePrometheus(&b); err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(b.String(), "\n"+telemetry.MetricStoreRecords+" ") {
			t.Errorf("monitor %d's registry does not export %s", i, telemetry.MetricStoreRecords)
		}
	}
}
