package wanfd

import (
	"fmt"
	"net"
	"net/netip"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"wanfd/internal/neko"
	"wanfd/internal/transport"
)

// heartbeatPacket encodes one heartbeat addressed to the cluster monitor,
// claiming to come from process id from.
func heartbeatPacket(tb testing.TB, from neko.ProcessID, seq int64, sentUnix int64) []byte {
	tb.Helper()
	pkt, err := transport.Encode(nil, &neko.Message{
		From: from, To: multiMonitorID, Type: neko.MsgHeartbeat, Seq: seq,
	}, sentUnix)
	if err != nil {
		tb.Fatal(err)
	}
	return pkt
}

// TestStrangerCannotRefreshPeer is the spoofing regression: the sender's
// id on the wire is a claim anyone can make, so heartbeats that claim an id
// but arrive from an unregistered address must not reach any peer's
// detector. They are counted as unknown-source and dropped.
func TestStrangerCannotRefreshPeer(t *testing.T) {
	var transitions atomic.Int64
	mm, err := NewMultiMonitor("127.0.0.1:0",
		WithPeer("victim", "127.0.0.9:4000"),
		WithEta(time.Second),
		WithOnChange(func(string, bool, time.Duration) { transitions.Add(1) }))
	if err != nil {
		t.Fatal(err)
	}
	defer mm.Close()
	stranger, err := net.ListenUDP("udp4", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	defer stranger.Close()
	const spoofed = 5
	dst := netip.MustParseAddrPort(mm.LocalAddr())
	for i := int64(0); i < spoofed; i++ {
		pkt := heartbeatPacket(t, multiMonitorID+1, i+1, time.Now().UnixNano())
		if _, err := stranger.WriteToUDPAddrPort(pkt, dst); err != nil {
			t.Fatal(err)
		}
	}
	if !waitFor(t, 5*time.Second, func() bool { return mm.Stats().Ingest.UnknownSource == spoofed }) {
		t.Fatalf("UnknownSource = %d, want %d", mm.Stats().Ingest.UnknownSource, spoofed)
	}
	st, err := mm.PeerStatusOf("victim")
	if err != nil {
		t.Fatal(err)
	}
	if st.Heartbeats != 0 || st.Stale != 0 {
		t.Errorf("victim credited %d heartbeats (%d stale) sent by a stranger, want 0", st.Heartbeats, st.Stale)
	}
	if n := transitions.Load(); n != 0 {
		t.Errorf("%d suspicion/trust transitions caused by a stranger, want 0", n)
	}
}

// goroutineBaseline returns the goroutine count once it has stopped
// falling: goroutines of monitors that earlier tests closed may still be on
// their way out.
func goroutineBaseline() int {
	for n := runtime.NumGoroutine(); ; n = runtime.NumGoroutine() {
		time.Sleep(10 * time.Millisecond)
		if runtime.NumGoroutine() >= n {
			return runtime.NumGoroutine()
		}
	}
}

// goroutinesSettle polls the goroutine count until it is want or a second
// has passed, and returns the last reading: a goroutine takes a moment to
// leave the count after its last statement.
func goroutinesSettle(want int) int {
	deadline := time.Now().Add(time.Second)
	for runtime.NumGoroutine() != want && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	return runtime.NumGoroutine()
}

// TestMonitorGoroutineBudget pins what a monitor costs in goroutines while
// deadlines are armed: one per reader socket and one expiry driver,
// whatever the expected peer count — and none once it is closed.
func TestMonitorGoroutineBudget(t *testing.T) {
	const peers = 4096
	for _, expected := range []int{0, 1 << 19} {
		before := goroutineBaseline()
		mm, err := NewMultiMonitor("127.0.0.1:0",
			WithEta(time.Minute),
			WithPipeline(PipelineConfig{ExpectedPeers: expected}))
		if err != nil {
			t.Fatal(err)
		}
		pkts := make([][]byte, peers)
		srcs := make([]netip.AddrPort, peers)
		for i := range srcs {
			srcs[i] = netip.AddrPortFrom(netip.AddrFrom4([4]byte{127, 1, byte(i >> 8), byte(i)}), 4000)
			if err := mm.AddPeer(fmt.Sprintf("p%d", i), srcs[i].String()); err != nil {
				t.Fatal(err)
			}
			pkts[i] = heartbeatPacket(t, 0, 1, mm.net.WallTime().UnixNano())
		}
		mm.net.NewInjector().InjectBatch(pkts, srcs)
		st := mm.SchedulerStats()
		if st.Scheduled != peers {
			t.Fatalf("ExpectedPeers=%d: %d deadlines armed, want %d", expected, st.Scheduled, peers)
		}
		if got := goroutinesSettle(before+2) - before; got != 2 {
			t.Errorf("ExpectedPeers=%d: %d goroutines with %d armed deadlines, want 2 (one reader, one expiry driver)",
				expected, got, peers)
		}
		if err := mm.Close(); err != nil {
			t.Fatal(err)
		}
		if got := goroutinesSettle(before); got != before {
			t.Errorf("ExpectedPeers=%d: %d goroutines after Close, %d before construction", expected, got, before)
		}
	}
}

// TestInjectBatchDeliversBeforeReturning pins the run-to-completion
// contract: the goroutine that drains a batch delivers it, so when
// InjectBatch returns the detector has already counted the heartbeat and a
// suspected peer's trust callback has already run.
func TestInjectBatchDeliversBeforeReturning(t *testing.T) {
	const addr = "127.0.0.9:4000"
	var trusted atomic.Bool
	mm, err := NewMultiMonitor("127.0.0.1:0",
		WithPeer("p", addr),
		WithEta(20*time.Millisecond),
		WithOnTrust(func(time.Duration) { trusted.Store(true) }))
	if err != nil {
		t.Fatal(err)
	}
	defer mm.Close()
	inj := mm.net.NewInjector()
	srcs := []netip.AddrPort{netip.MustParseAddrPort(addr)}
	inject := func(seq int64) {
		inj.InjectBatch([][]byte{heartbeatPacket(t, 0, seq, mm.net.WallTime().UnixNano())}, srcs)
	}
	inject(1)
	if st, _ := mm.PeerStatusOf("p"); st.Heartbeats != 1 {
		t.Fatalf("Heartbeats = %d when InjectBatch returned, want 1", st.Heartbeats)
	}
	if !waitFor(t, 5*time.Second, func() bool { s, _ := mm.Suspected("p"); return s }) {
		t.Fatal("silent peer never suspected")
	}
	inject(2)
	if !trusted.Load() {
		t.Error("trust callback had not run when InjectBatch returned")
	}
	if st, _ := mm.PeerStatusOf("p"); st.Heartbeats != 2 || st.Suspected {
		t.Errorf("after the second heartbeat: Heartbeats = %d, Suspected = %v, want 2/false", st.Heartbeats, st.Suspected)
	}
}

// TestPerPeerOrderKept checks that no stage of the receive path reorders
// one peer's heartbeats: 10,000 sequence numbers in order end with
// Stale == 0 through the injector in every chunk size, and over a real
// socket with one reader and with two (SO_REUSEPORT hashes a source to one
// socket, so a second reader must not interleave a peer's stream), and with
// the transport's own Send as the source.
func TestPerPeerOrderKept(t *testing.T) {
	const total = 10000
	check := func(t *testing.T, mm *MultiMonitor) {
		t.Helper()
		st, err := mm.PeerStatusOf("p")
		if err != nil {
			t.Fatal(err)
		}
		if st.Heartbeats != total || st.Stale != 0 {
			t.Errorf("Heartbeats = %d, Stale = %d, want %d/0", st.Heartbeats, st.Stale, total)
		}
	}
	t.Run("injector", func(t *testing.T) {
		const addr = "127.0.0.9:4000"
		mm, err := NewMultiMonitor("127.0.0.1:0", WithPeer("p", addr), WithEta(time.Second))
		if err != nil {
			t.Fatal(err)
		}
		defer mm.Close()
		inj := mm.net.NewInjector()
		src := netip.MustParseAddrPort(addr)
		var pkts [][]byte
		var srcs []netip.AddrPort
		for seq, chunk := int64(1), 1; seq <= total; chunk = chunk%64 + 1 {
			pkts, srcs = pkts[:0], srcs[:0]
			for ; len(pkts) < chunk && seq <= total; seq++ {
				pkts = append(pkts, heartbeatPacket(t, 0, seq, mm.net.WallTime().UnixNano()))
				srcs = append(srcs, src)
			}
			inj.InjectBatch(pkts, srcs)
		}
		check(t, mm)
	})
	// paced writes seq 1..total with send, keeping at most window datagrams
	// in the monitor's socket buffer, so the kernel never drops and every
	// heartbeat must be counted.
	paced := func(t *testing.T, mm *MultiMonitor, send func(seq int64)) {
		t.Helper()
		const window = 64
		deadline := time.Now().Add(30 * time.Second)
		for seq := int64(1); seq <= total; seq++ {
			for {
				_, received, _ := mm.net.Stats()
				if seq-int64(received) <= window {
					break
				}
				if time.Now().After(deadline) {
					t.Fatalf("stalled: %d sent, %d received", seq-1, received)
				}
				time.Sleep(50 * time.Microsecond)
			}
			send(seq)
		}
		waitFor(t, 5*time.Second, func() bool {
			_, received, _ := mm.net.Stats()
			return received == total
		})
		check(t, mm)
	}
	for _, readers := range []int{1, 2} {
		t.Run(fmt.Sprintf("socket/readers=%d", readers), func(t *testing.T) {
			peer, err := net.ListenUDP("udp4", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
			if err != nil {
				t.Fatal(err)
			}
			defer peer.Close()
			mm, err := NewMultiMonitor("127.0.0.1:0",
				WithPeer("p", peer.LocalAddr().String()),
				WithEta(time.Second),
				WithPipeline(PipelineConfig{Readers: readers}))
			if err != nil {
				t.Fatal(err)
			}
			defer mm.Close()
			dst := netip.MustParseAddrPort(mm.LocalAddr())
			paced(t, mm, func(seq int64) {
				pkt := heartbeatPacket(t, 0, seq, time.Now().UnixNano())
				if _, err := peer.WriteToUDPAddrPort(pkt, dst); err != nil {
					t.Fatal(err)
				}
			})
		})
	}
	// The product's own send path as the source: Send writes each datagram
	// before returning, so one goroutine's sends reach the monitor in
	// program order, none lost and none stale.
	t.Run("send", func(t *testing.T) {
		ep, err := transport.NewUDPNetwork(transport.UDPConfig{LocalID: 1, Listen: "127.0.0.1:0"})
		if err != nil {
			t.Fatal(err)
		}
		defer ep.Close()
		mm, err := NewMultiMonitor("127.0.0.1:0", WithPeer("p", ep.LocalAddr().String()), WithEta(time.Second))
		if err != nil {
			t.Fatal(err)
		}
		defer mm.Close()
		if err := ep.AddPeer(multiMonitorID, mm.LocalAddr()); err != nil {
			t.Fatal(err)
		}
		sender, err := ep.Attach(1, &neko.Base{})
		if err != nil {
			t.Fatal(err)
		}
		m := &neko.Message{From: 1, To: multiMonitorID, Type: neko.MsgHeartbeat}
		paced(t, mm, func(seq int64) {
			m.Seq, m.SentAt = seq, ep.Clock().Now()
			sender.Send(m)
		})
		if st := ep.EgressStats(); st.Packets != total || st.SendErrors != 0 {
			t.Errorf("sender wrote %d packets with %d errors, want %d/0", st.Packets, st.SendErrors, total)
		}
		if drops := mm.Stats().Ingest.KernelDrops; drops != 0 {
			t.Errorf("%d kernel drops with at most 64 datagrams in flight", drops)
		}
	})
}

// TestStalledDeliveryNeverSuspectsEarly is §2.3's "never early" on the
// socket path: a batch holds a heartbeat of suspected peer A, then one of
// live peer B stamped before B's freshness point. A's trust callback
// stalls the delivery past that point. B's heartbeat was received in time,
// so B must not be suspected — the monitor's own stall is not B's failure.
func TestStalledDeliveryNeverSuspectsEarly(t *testing.T) {
	const eta, floor, stall = 10 * time.Millisecond, 50 * time.Millisecond, 100 * time.Millisecond
	var (
		mu      sync.Mutex
		log     []string
		stalled bool
	)
	mm, err := NewMultiMonitor("127.0.0.1:0", WithEta(eta), WithMinTimeout(floor),
		WithOnChange(func(peer string, suspected bool, at time.Duration) {
			mu.Lock()
			log = append(log, fmt.Sprintf("%s suspected=%v at %v", peer, suspected, at))
			first := peer == "A" && !suspected && !stalled
			stalled = stalled || first
			mu.Unlock()
			if first {
				time.Sleep(stall)
			}
		}))
	if err != nil {
		t.Fatal(err)
	}
	defer mm.Close()
	srcA := netip.MustParseAddrPort("127.0.0.9:4000")
	srcB := netip.MustParseAddrPort("127.0.0.9:4001")
	for name, src := range map[string]netip.AddrPort{"A": srcA, "B": srcB} {
		if err := mm.AddPeer(name, src.String()); err != nil {
			t.Fatal(err)
		}
	}
	inj := mm.net.NewInjector()
	wall := func() int64 { return mm.net.WallTime().UnixNano() }

	inj.InjectBatch([][]byte{heartbeatPacket(t, 0, 1, wall())}, []netip.AddrPort{srcA})
	if !waitFor(t, 5*time.Second, func() bool { s, _ := mm.Suspected("A"); return s }) {
		t.Fatal("A was never suspected")
	}
	// B's first heartbeat sets its freshness point eta+floor ahead, inside
	// the stall about to start. Its second is sent far in the future, so
	// the freshness point it sets lies beyond the end of the test.
	inj.InjectBatch([][]byte{heartbeatPacket(t, 0, 1, wall())}, []netip.AddrPort{srcB})
	inj.InjectBatch(
		[][]byte{heartbeatPacket(t, 0, 2, wall()), heartbeatPacket(t, 0, 2, wall()+int64(time.Hour))},
		[]netip.AddrPort{srcA, srcB})

	st, err := mm.PeerStatusOf("B")
	if err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	if !stalled {
		t.Fatal("A's trust callback never stalled the delivery")
	}
	if st.Suspicions != 0 || st.Suspected || st.Heartbeats != 2 {
		t.Errorf("B is %+v after a delivery stalled past its freshness point; want 2 heartbeats and no suspicion\ntransitions: %v", st, log)
	}
}
