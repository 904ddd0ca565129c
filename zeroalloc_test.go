package wanfd

import (
	"testing"
	"time"

	"wanfd/internal/neko"
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
// durable store attached and with live telemetry: each pair is a real
// suspicion and trust of the peer's detector, driven by heartbeats through
// the monitor's delivery path, and the detector feeds the recorder and the
// telemetry bundle it was given when the peer was published, so a
// suspect/trust pair allocates nothing.
func TestTransitionZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc accounting holds only in normal builds")
	}
	pair := func(t *testing.T, what string, reg *telemetry.Registry, opts ...Option) {
		t.Helper()
		// A MEAN predictor, unlike LAST, does not forecast a heartbeat's own
		// delay: after many prompt heartbeats one delayed by an hour is
		// overdue on arrival, and the next prompt one is fresh again.
		mm := benchCluster(t, []string{"p"}, benchPeerAddr,
			append(opts, WithPredictor("MEAN"), WithMargin("CI_low"),
				WithOnChange(func(string, bool, time.Duration) {}))...)
		clk := mm.ctx.Clock
		msg := neko.Message{Type: neko.MsgHeartbeat, Handle: peerHandleOf(t, mm, "p")}
		beat := func(delay time.Duration) {
			now := clk.Now()
			msg.Seq++
			msg.SentAt = now - delay
			mm.deliver(&msg, now)
		}
		for i := 0; i < 1<<16; i++ {
			beat(0)
		}
		const runs = 1000
		if avg := testing.AllocsPerRun(runs, func() {
			beat(time.Hour) // overdue: suspect
			beat(0)         // fresh: trust
		}); avg != 0 {
			t.Errorf("a suspect/trust pair with %s attached allocates %.1f, want 0", what, avg)
		}
		// AllocsPerRun runs the pair once more to warm up.
		st, err := mm.PeerStatusOf("p")
		if err != nil || st.Suspicions != runs+1 || st.Suspected {
			t.Fatalf("status %+v (%v), want %d suspicions, each ended by a trust", st, err, runs+1)
		}
		if q, ok := qosWindow(mm, "p"); reg != nil && (!ok || q.Mistakes != runs+1) {
			t.Errorf("accuracy window %+v (open %v), want %d mistakes", q, ok, runs+1)
		}
	}
	t.Run("store", func(t *testing.T) {
		st, err := OpenStore(StoreConfig{Dir: t.TempDir()})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = st.Close() })
		pair(t, "a store", nil, WithStore(st))
	})
	// The peer's accuracy window opens at publication, in the bundle its
	// detector feeds.
	t.Run("telemetry", func(t *testing.T) {
		reg := telemetry.NewRegistry(0)
		pair(t, "telemetry", reg, WithTelemetry(reg))
	})
}
