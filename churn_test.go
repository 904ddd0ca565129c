package wanfd

import (
	"fmt"
	"net/netip"
	"testing"
	"time"
	"unsafe"

	"wanfd/internal/neko"
)

// TestPeerEntrySize pins the per-peer arena record, detector included: 64
// of them and the allocator's own 8-byte header fit one 16 KiB size class,
// so anything up to 248 bytes costs a peer 256, and one word more — a
// per-peer option copy, a second handle — costs it 288 or, past 256, halves
// the slab.
func TestPeerEntrySize(t *testing.T) {
	if got := unsafe.Sizeof(peerEntry{}); got > 248 {
		t.Errorf("peerEntry is %d bytes, want at most 248", got)
	}
}

// TestMultiMonitorExpiryChurn churns peers through a monitor whose expiry
// driver is running, so the driver takes real wake-ups amid the
// schedule/cancel races the churn produces: every armed deadline is
// accounted for, none survives its peer's removal, and the driver
// goroutine is gone once the last one is stopped. The CI race job runs this
// under the race detector; the wheel's slot occupancy must also account for
// the armed deadlines.
func TestMultiMonitorExpiryChurn(t *testing.T) {
	addrs := freeUDPPorts(t, 1)
	const peers = 128
	// The injector goroutine starts ahead of the baseline, so the goroutine
	// budget below stays the monitor's own. For the whole churn it feeds
	// heartbeats from every address through the transport: from members,
	// from addresses just removed, and from addresses whose datagram is
	// past the lookup when its peer is retired.
	feed := make(chan *MultiMonitor)
	stopFeed := make(chan struct{})
	fed := make(chan uint64)
	go func() {
		mon := <-feed
		inj := mon.net.NewInjector()
		pkts, srcs := make([][]byte, peers), make([]netip.AddrPort, peers)
		for i := range srcs {
			srcs[i] = netip.MustParseAddrPort(fmt.Sprintf("127.0.0.1:%d", 41001+i))
		}
		var n uint64
		for seq := int64(2); ; seq++ {
			select {
			case <-stopFeed:
				fed <- n
				return
			default:
			}
			for i := range pkts {
				pkts[i] = heartbeatPacket(t, 0, seq, mon.net.WallTime().UnixNano())
			}
			inj.InjectBatch(pkts, srcs)
			n += peers
		}
	}()
	before := goroutineBaseline()
	mon, err := NewMultiMonitor(addrs[0], WithEta(100*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	defer mon.Close()
	feed <- mon
	defer func() {
		close(stopFeed)
		if n, unknown := <-fed, mon.Stats().Ingest.UnknownSource; n == 0 || unknown == 0 {
			t.Errorf("%d heartbeats injected during the churn, %d from removed addresses: the churn ran unopposed", n, unknown)
		}
	}()

	for c := 0; c < 2; c++ {
		for i := 0; i < peers; i++ {
			name := fmt.Sprintf("pin-%03d", i)
			if err := mon.AddPeer(name, fmt.Sprintf("127.0.0.1:%d", 41001+i)); err != nil {
				t.Fatalf("cycle %d add %s: %v", c, name, err)
			}
		}
		// One heartbeat per peer arms its freshness deadline (AddPeer alone
		// does not).
		for i := 0; i < peers; i++ {
			now := mon.ctx.Clock.Now()
			mon.deliver(&neko.Message{
				Type:   neko.MsgHeartbeat,
				Handle: peerHandleOf(t, mon, fmt.Sprintf("pin-%03d", i)),
				Seq:    1,
				SentAt: now,
			}, now)
		}
		st := mon.SchedulerStats()
		if st.Scheduled != peers {
			t.Fatalf("cycle %d: %d armed deadlines, want one per peer (%d)", c, st.Scheduled, peers)
		}
		// Let the driver take some wake-ups mid-churn.
		time.Sleep(20 * time.Millisecond)
		if got := goroutinesSettle(before+2) - before; got != 2 {
			t.Fatalf("cycle %d: %d goroutines above the baseline, want 2 (one reader, one expiry driver)", c, got)
		}
		if st.FineOccupied+st.CoarseOccupied+st.OverflowTimers == 0 {
			t.Fatalf("cycle %d: %d armed deadlines but no occupied wheel slot", c, peers)
		}
		for i := 0; i < peers; i++ {
			if err := mon.RemovePeer(fmt.Sprintf("pin-%03d", i)); err != nil {
				t.Fatalf("cycle %d remove %d: %v", c, i, err)
			}
		}
		if st := mon.SchedulerStats(); st.Scheduled != 0 {
			t.Fatalf("cycle %d: %d deadlines still armed after drain", c, st.Scheduled)
		}
		// The last Stop pokes the driver, which finds nothing queued.
		if got := goroutinesSettle(before+1) - before; got != 1 {
			t.Fatalf("cycle %d: %d goroutines above the baseline after the drain, want the reader alone", c, got)
		}
	}
}

// TestMultiMonitorChurnCompaction cycles the full peer set through
// AddPeer/RemovePeer and asserts the peer arena and table return to
// baseline each time: zero live entries after a drain, tombstones
// compacted below cap/4, probe lengths bounded, and no capacity ratchet
// across identical cycles.
func TestMultiMonitorChurnCompaction(t *testing.T) {
	addrs := freeUDPPorts(t, 1)
	mon, err := NewMultiMonitor(addrs[0], WithEta(time.Second))
	if err != nil {
		t.Fatal(err)
	}
	defer mon.Close()

	const (
		cycles = 4
		peers  = 512
	)
	// occupancy is everything a peer occupies outside the name table:
	// transport address entries, peer records, armed deadlines.
	occupancy := func() [3]int {
		byAddr, _ := mon.net.PeerTableStats()
		return [3]int{byAddr.Live, liveRecords(mon), mon.SchedulerStats().Scheduled}
	}
	baseline := occupancy()
	var firstCap int
	for c := 0; c < cycles; c++ {
		for i := 0; i < peers; i++ {
			name := fmt.Sprintf("churn-%04d", i)
			if err := mon.AddPeer(name, fmt.Sprintf("127.0.0.1:%d", 40001+i)); err != nil {
				t.Fatalf("cycle %d add %s: %v", c, name, err)
			}
		}
		// Failed adds must leave nothing behind: each is rejected at a
		// different step of AddPeer (name check before a slot is reserved,
		// address check in the transport registration, sync exchange after
		// it).
		full := occupancy()
		if err := mon.AddPeer("churn-0000", "127.0.0.1:39999"); err == nil {
			t.Fatalf("cycle %d: duplicate name accepted", c)
		}
		if err := mon.AddPeer("alias", "127.0.0.1:40001"); err == nil {
			t.Fatalf("cycle %d: duplicate address accepted", c)
		}
		mon.opts.syncTimeout = 5 * time.Millisecond
		if err := mon.AddPeer("silent", "127.0.0.1:39998"); err == nil {
			t.Fatalf("cycle %d: peer that never answered the clock sync accepted", c)
		}
		mon.opts.syncTimeout = 0
		if got := occupancy(); got != full {
			t.Fatalf("cycle %d: failed adds moved (transport, records, timers) from %v to %v", c, full, got)
		}
		if got := mon.Peers(); got != peers {
			t.Fatalf("cycle %d: monitor reports %d peers, want %d", c, got, peers)
		}
		for i := 0; i < peers; i++ {
			if err := mon.RemovePeer(fmt.Sprintf("churn-%04d", i)); err != nil {
				t.Fatalf("cycle %d remove %d: %v", c, i, err)
			}
		}
		mon.mu.RLock()
		tab, ents := mon.tab.Stats(), mon.ents.Stats()
		mon.mu.RUnlock()
		if tab.Live != 0 || ents.Live != 0 {
			t.Fatalf("cycle %d: %d table / %d arena entries live after drain", c, tab.Live, ents.Live)
		}
		if tab.Tombstones*4 > tab.Cap {
			t.Fatalf("cycle %d: %d tombstones at cap %d, want compacted below cap/4", c, tab.Tombstones, tab.Cap)
		}
		if tab.MaxProbe > 64 {
			t.Fatalf("cycle %d: MaxProbe %d, want bounded", c, tab.MaxProbe)
		}
		if c == 0 {
			firstCap = tab.Cap
		} else if tab.Cap > firstCap {
			t.Fatalf("cycle %d: table cap grew %d -> %d across identical cycles", c, firstCap, tab.Cap)
		}
		if got := occupancy(); got != baseline {
			t.Fatalf("cycle %d: (transport, records, timers) = %v after drain, want baseline %v", c, got, baseline)
		}
	}
}
