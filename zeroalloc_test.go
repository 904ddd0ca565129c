package wanfd

import (
	"testing"
	"time"

	"wanfd/internal/telemetry"
)

// TestPipelineZeroAlloc is the "no per-heartbeat bookkeeping" gate on the
// production cluster monitor: at 1,024 peers, one run carries a 64-datagram
// batch through decode, attribution, delivery, detector update and wheel
// re-arm (and, on the egress row, as many heartbeats through encode and
// socket write), and once the pools are warm no goroutine of the process
// may allocate — AllocsPerRun resolves one allocation per run, 1/64 per
// heartbeat.
func TestPipelineZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc accounting holds only in normal builds")
	}
	for _, row := range []struct {
		name   string
		egress bool
		store  bool
		ipv6   bool
	}{
		{name: "ingest"},
		// Peers at IPv6 addresses: their digest keys share the one address
		// table with IPv4's packed keys, at the same zero cost.
		{name: "ingest-ipv6", ipv6: true},
		// Hot-path neutrality of the durable QoS store: every detector taps
		// a PeerRecorder, samples go into a fixed ring, and only the
		// background writer touches the filesystem.
		{name: "ingest+store", store: true},
		{name: "ingest+egress", egress: true},
	} {
		t.Run(row.name, func(t *testing.T) {
			var opts []Option
			if row.store {
				st, err := OpenStore(StoreConfig{Dir: t.TempDir()})
				if err != nil {
					t.Fatal(err)
				}
				t.Cleanup(func() { _ = st.Close() })
				opts = append(opts, WithStore(st))
			}
			addr := benchPeerAddr
			if row.ipv6 {
				addr = benchPeerAddr6
			}
			h := newPipelineHarness(t, benchClusterPeers, row.egress, addr, opts...)
			run := func() { h.offer(benchIngestChunk) }
			// Warm-up: every peer's detector sees heartbeats and arms its
			// deadline.
			for i := 0; i < 4*benchClusterPeers/benchIngestChunk; i++ {
				run()
			}
			if avg := testing.AllocsPerRun(100, run); avg != 0 {
				t.Errorf("steady-state pipeline allocates %.0f per %d-heartbeat run, want 0", avg, benchIngestChunk)
			}
			h.checkLossless(t)
		})
	}
}

// TestTransitionZeroAlloc pins a suspicion transition's cost with the
// durable store attached and with live telemetry: the sink finds the peer's
// recorder the store interned, and the series the registry resolved, when
// the peer was added, so a suspect/trust pair allocates nothing.
func TestTransitionZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc accounting holds only in normal builds")
	}
	pair := func(t *testing.T, what string, opts ...Option) {
		t.Helper()
		mm := benchCluster(t, []string{"p"}, benchPeerAddr,
			append(opts, WithOnChange(func(string, bool, time.Duration) {}))...)
		at := time.Second
		if avg := testing.AllocsPerRun(1000, func() {
			at += time.Millisecond
			mm.listener.OnSuspect("p", at)
			mm.listener.OnTrust("p", at)
		}); avg != 0 {
			t.Errorf("a suspect/trust pair with %s attached allocates %.1f, want 0", what, avg)
		}
	}
	t.Run("store", func(t *testing.T) {
		st, err := OpenStore(StoreConfig{Dir: t.TempDir()})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = st.Close() })
		pair(t, "a store", WithStore(st))
	})
	// The peer's transition counter and QoS gauges are resolved when its
	// accuracy window opens, at publication.
	t.Run("telemetry", func(t *testing.T) {
		pair(t, "telemetry", WithTelemetry(telemetry.NewRegistry(0)))
	})
}
