package transport

import (
	stdnet "net"
	"runtime"
	"sync"
	"testing"
	"time"

	"wanfd/internal/neko"
	"wanfd/internal/telemetry"
)

// TestSendRunsToCompletion pins the send contract: when Send returns the
// datagram has been written and counted — one packet out is one packet on
// the counters — so a plain socket at the destination reads it without
// waiting on anything but the kernel.
func TestSendRunsToCompletion(t *testing.T) {
	dst, err := stdnet.ListenUDP("udp4", &stdnet.UDPAddr{IP: stdnet.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	defer dst.Close()
	n, err := NewUDPNetwork(UDPConfig{
		LocalID: 2,
		Listen:  "127.0.0.1:0",
		Peers:   map[neko.ProcessID]string{1: dst.LocalAddr().String()},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { n.Close() })
	if got := n.EgressStats(); got != (EgressStats{}) {
		t.Errorf("idle endpoint reports egress stats %+v", got)
	}
	sender, err := n.Attach(2, recvFunc(func(*neko.Message) {}))
	if err != nil {
		t.Fatal(err)
	}
	sender.Send(&neko.Message{From: 2, To: 1, Type: neko.MsgHeartbeat, Seq: 7, SentAt: n.Clock().Now()})
	if st := n.EgressStats(); st.Packets != 1 || st.Flushes != 1 || st.SendErrors != 0 {
		t.Errorf("egress stats when Send returned = %+v, want 1 packet in 1 write", st)
	}
	if sent, _, _ := n.Stats(); sent != 1 {
		t.Errorf("sent = %d when Send returned, want 1", sent)
	}
	if err := dst.SetReadDeadline(time.Now().Add(50 * time.Millisecond)); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, maxPacketSize)
	nb, _, err := dst.ReadFromUDPAddrPort(buf)
	if err != nil {
		t.Fatalf("datagram not in the destination socket after Send returned: %v", err)
	}
	if m, _, err := Decode(buf[:nb]); err != nil || m.Seq != 7 {
		t.Errorf("read %+v, %v; want the heartbeat with seq 7", m, err)
	}
}

// TestEgressPerPeerOrder pins the order contract: a peer's packets are
// written in program order on the sender's goroutine, so heartbeats arrive
// in send order. Reordering here would turn fresh heartbeats stale at the
// detector.
func TestEgressPerPeerOrder(t *testing.T) {
	a, b := twoEndpoints(t)
	rcv := &batchRecv{}
	if _, err := a.Attach(1, rcv); err != nil {
		t.Fatal(err)
	}
	sender, err := b.Attach(2, recvFunc(func(*neko.Message) {}))
	if err != nil {
		t.Fatal(err)
	}
	// Bursts small enough that the receiver's socket buffer does not
	// overflow on a single CPU.
	const total, burst = 400, 50
	for i := int64(0); i < total; i++ {
		sender.Send(&neko.Message{From: 2, To: 1, Type: neko.MsgHeartbeat, Seq: i, SentAt: b.Clock().Now()})
		if (i+1)%burst == 0 {
			waitReceived(t, a, uint64(i+1))
		}
	}
	if st := b.EgressStats(); st.Packets != total || st.Flushes != total || st.RingDrops != 0 || st.SendErrors != 0 {
		t.Fatalf("egress stats %+v, want %d packets and no drops or errors", st, total)
	}
	rcv.mu.Lock()
	defer rcv.mu.Unlock()
	last := int64(-1)
	for i, m := range rcv.msgs {
		if m.Seq <= last {
			t.Fatalf("message %d has seq %d after seq %d — per-peer order broken", i, m.Seq, last)
		}
		last = m.Seq
	}
}

// TestEgressUnknownPeerDropped pins the resolve step: a message for an
// unregistered destination is dropped at the peer-table lookup, and traffic
// to known peers keeps flowing.
func TestEgressUnknownPeerDropped(t *testing.T) {
	a, b := twoEndpoints(t)
	rcv := &batchRecv{}
	if _, err := a.Attach(1, rcv); err != nil {
		t.Fatal(err)
	}
	sender, err := b.Attach(2, recvFunc(func(*neko.Message) {}))
	if err != nil {
		t.Fatal(err)
	}
	// Peer 9 was never added on b.
	sender.Send(&neko.Message{From: 2, To: 9, Type: neko.MsgHeartbeat, Seq: 0, SentAt: b.Clock().Now()})
	sender.Send(&neko.Message{From: 2, To: 1, Type: neko.MsgHeartbeat, Seq: 1, SentAt: b.Clock().Now()})
	waitReceived(t, a, 1)
	st := b.EgressStats()
	if st.Packets != 1 {
		t.Errorf("packets = %d, want 1 — the unknown-peer packet must not be sent", st.Packets)
	}
	if st.SendErrors != 0 {
		t.Errorf("send errors = %d, want 0 — an unknown peer is a drop, not a send error", st.SendErrors)
	}
	sent, _, _ := b.Stats()
	if sent != 1 {
		t.Errorf("sent = %d, want 1", sent)
	}
}

// TestEgressSendErrorsCounted pins where each failure is counted, both
// before Send returns: an unencodable message in SendErrors only, a dead
// socket in SendErrors and EgressStats.SendErrors.
func TestEgressSendErrorsCounted(t *testing.T) {
	a, _ := twoEndpoints(t)
	sender, err := a.Attach(1, recvFunc(func(*neko.Message) {}))
	if err != nil {
		t.Fatal(err)
	}
	sender.Send(&neko.Message{From: 1, To: 2, Payload: make([]byte, maxPayload+1)})
	if got := a.SendErrors(); got != 1 {
		t.Fatalf("send errors after oversized payload = %d, want 1", got)
	}
	if st := a.EgressStats(); st.Packets != 0 || st.SendErrors != 0 {
		t.Fatalf("egress stats after oversized payload = %+v, want no packet and no socket error", st)
	}
	a.conn.Close()
	sender.Send(&neko.Message{From: 1, To: 2, Type: neko.MsgHeartbeat, Seq: 1, SentAt: a.Clock().Now()})
	if got := a.EgressStats().SendErrors; got != 1 {
		t.Errorf("socket-level send errors after dead socket = %d, want 1", got)
	}
	if got := a.SendErrors(); got != 2 {
		t.Errorf("send errors after dead socket = %d, want 2", got)
	}
}

// TestEgressSendZeroAllocSteadyState pins the send path — resolve, encode
// into the stack buffer, socket write — and the receiving endpoint's
// delivery at zero allocations per heartbeat.
func TestEgressSendZeroAllocSteadyState(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc accounting holds only in normal builds")
	}
	a, b := twoEndpoints(t)
	if _, err := a.Attach(1, recvFunc(func(*neko.Message) {})); err != nil {
		t.Fatal(err)
	}
	sender, err := b.Attach(2, recvFunc(func(*neko.Message) {}))
	if err != nil {
		t.Fatal(err)
	}
	m := &neko.Message{From: 2, To: 1, Type: neko.MsgHeartbeat}
	var sent uint64
	sendAndDrain := func() {
		m.Seq++
		m.SentAt = b.Clock().Now()
		sender.Send(m)
		sent++
		// Wait for delivery on a so the receiver's work is charged to the
		// measurement too.
		for {
			if _, received, _ := a.Stats(); received >= sent {
				return
			}
			runtime.Gosched()
		}
	}
	for i := 0; i < 50; i++ {
		sendAndDrain() // warm-up
	}
	if avg := testing.AllocsPerRun(200, sendAndDrain); avg != 0 {
		t.Errorf("steady-state send allocates %.2f/op, want 0", avg)
	}
	if st := b.EgressStats(); st.Packets != sent || st.RingDrops != 0 || st.SendErrors != 0 {
		t.Errorf("egress stats %+v after %d sends, want all written", st, sent)
	}
}

// TestSendRacesPeerChurnAndClose hammers Send from several goroutines while
// the destination is removed and re-added, then closes the endpoint under
// them: every offered message is written, refused by the socket or dropped
// for an unknown peer — none vanish — and a Send after Close returns at once
// as a send error.
func TestSendRacesPeerChurnAndClose(t *testing.T) {
	dst, err := stdnet.ListenUDP("udp4", &stdnet.UDPAddr{IP: stdnet.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	defer dst.Close()
	n, err := NewUDPNetwork(UDPConfig{
		LocalID:   1,
		Listen:    "127.0.0.1:0",
		Peers:     map[neko.ProcessID]string{2: dst.LocalAddr().String()},
		Telemetry: telemetry.NewRegistry(0),
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { n.Close() })
	sender, err := n.Attach(1, recvFunc(func(*neko.Message) {}))
	if err != nil {
		t.Fatal(err)
	}
	const senders, each = 8, 2000
	var wg sync.WaitGroup
	for g := 0; g < senders; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			m := &neko.Message{From: 1, To: 2, Type: neko.MsgHeartbeat}
			for i := 0; i < each; i++ {
				m.Seq++
				sender.Send(m)
			}
		}()
	}
	churnDone := make(chan struct{})
	go func() {
		defer close(churnDone)
		for i := 0; i < 200; i++ {
			// Either call may find the other's state; only the race matters.
			_ = n.RemovePeer(2)
			_ = n.AddPeer(2, dst.LocalAddr().String())
		}
		if err := n.Close(); err != nil {
			t.Errorf("Close: %v", err)
		}
	}()
	wg.Wait()
	<-churnDone
	st := n.EgressStats()
	if got := st.Packets + st.SendErrors + n.mDropped.Value(); got != senders*each {
		t.Errorf("packets %d + send errors %d + unknown-peer drops %d = %d, want %d offered",
			st.Packets, st.SendErrors, n.mDropped.Value(), got, senders*each)
	}
	before := n.SendErrors()
	returned := make(chan struct{})
	go func() {
		sender.Send(&neko.Message{From: 1, To: 2, Type: neko.MsgHeartbeat})
		close(returned)
	}()
	select {
	case <-returned:
	case <-time.After(5 * time.Second):
		t.Fatal("Send after Close did not return")
	}
	if got := n.SendErrors(); got != before+1 {
		t.Errorf("send errors after a Send on the closed endpoint = %d, want %d", got, before+1)
	}
}
