package transport

import (
	"runtime"
	"testing"
	"time"

	"wanfd/internal/neko"
)

// batchedPair builds two connected endpoints with the batched egress
// pipeline on (the default): a is peer 1, b is peer 2, each knows the
// other's address.
func batchedPair(t *testing.T, cfg UDPConfig) (*UDPNetwork, *UDPNetwork) {
	t.Helper()
	acfg := cfg
	acfg.LocalID = 1
	acfg.Listen = "127.0.0.1:0"
	a, err := NewUDPNetwork(acfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { a.Close() })
	bcfg := cfg
	bcfg.LocalID = 2
	bcfg.Listen = "127.0.0.1:0"
	bcfg.Peers = map[neko.ProcessID]string{1: a.LocalAddr().String()}
	b, err := NewUDPNetwork(bcfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { b.Close() })
	if err := a.AddPeer(2, b.LocalAddr().String()); err != nil {
		t.Fatal(err)
	}
	return a, b
}

// waitEgress polls one endpoint's egress counters until cond is satisfied.
func waitEgress(t *testing.T, n *UDPNetwork, what string, cond func(EgressStats) bool) EgressStats {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if st := n.EgressStats(); cond(st) {
			return st
		}
		time.Sleep(time.Millisecond)
	}
	st := n.EgressStats()
	t.Fatalf("timed out waiting for %s; egress stats %+v", what, st)
	return st
}

// stallFlusher parks n's egress flusher at its per-batch destination lookup
// by taking the peer-table write lock and feeding it one sacrificial packet
// for peer to: once that packet has left the ring the flusher holds it and
// cannot sweep again until the returned release drops the lock, so
// everything enqueued in between deterministically stays queued.
func stallFlusher(t *testing.T, n *UDPNetwork, to neko.ProcessID) (release func()) {
	t.Helper()
	ring := n.egress.shards[uint64(uint32(to))&n.egress.shardMask].ring
	n.peerMu.Lock()
	n.enqueue(&neko.Message{From: n.cfg.LocalID, To: to, Type: neko.MsgHeartbeat})
	for deadline := time.Now().Add(5 * time.Second); ring.Len() != 0; {
		if time.Now().After(deadline) {
			n.peerMu.Unlock()
			t.Fatal("flusher never picked up the first packet")
		}
		time.Sleep(time.Millisecond)
	}
	return n.peerMu.Unlock
}

// TestBatchedEgressDefaultOn pins that a default endpoint sends through
// the egress pipeline: one packet out is one packet on its counters.
func TestBatchedEgressDefaultOn(t *testing.T) {
	a, b := batchedPair(t, UDPConfig{})
	sender, err := b.Attach(2, recvFunc(func(*neko.Message) {}))
	if err != nil {
		t.Fatal(err)
	}
	sender.Send(&neko.Message{From: 2, To: 1, Type: neko.MsgHeartbeat, Seq: 1, SentAt: b.Clock().Now()})
	st := waitEgress(t, b, "packet flushed", func(st EgressStats) bool { return st.Packets >= 1 })
	if st.Packets != 1 || st.Flushes != 1 {
		t.Errorf("egress stats after one send = %+v, want 1 packet in 1 flush", st)
	}
	if got := a.EgressStats(); got != (EgressStats{}) {
		t.Errorf("idle endpoint reports egress stats %+v", got)
	}
}

// TestEgressPerPeerOrder pins the FIFO contract the shard design exists
// for: every packet for one peer rides one ring, one fixed sweep order and
// one flush window, so heartbeats arrive in send order across many
// batched flushes. Reordering here would turn fresh heartbeats stale at
// the detector.
func TestEgressPerPeerOrder(t *testing.T) {
	a, b := batchedPair(t, UDPConfig{})
	rcv := &batchRecv{}
	if _, err := a.Attach(1, rcv); err != nil {
		t.Fatal(err)
	}
	sender, err := b.Attach(2, recvFunc(func(*neko.Message) {}))
	if err != nil {
		t.Fatal(err)
	}
	// Bursts small enough that neither the egress rings nor the receiver's
	// ingest ring overflow on a single CPU, but large enough that every
	// burst crosses at least one multi-packet flush.
	const total, burst = 400, 50
	for i := int64(0); i < total; i++ {
		sender.Send(&neko.Message{From: 2, To: 1, Type: neko.MsgHeartbeat, Seq: i, SentAt: b.Clock().Now()})
		if (i+1)%burst == 0 {
			waitReceived(t, a, uint64(i+1))
		}
	}
	st := waitEgress(t, b, "all packets flushed", func(st EgressStats) bool {
		return st.Packets+st.RingDrops+st.SendErrors >= total
	})
	if st.RingDrops != 0 || st.SendErrors != 0 {
		t.Fatalf("drops=%d errors=%d at this load, want 0", st.RingDrops, st.SendErrors)
	}
	waitReceived(t, a, total)
	rcv.mu.Lock()
	defer rcv.mu.Unlock()
	last := int64(-1)
	for i, m := range rcv.msgs {
		if m.Seq <= last {
			t.Fatalf("message %d has seq %d after seq %d — per-peer order broken", i, m.Seq, last)
		}
		last = m.Seq
	}
	if st.Flushes == 0 {
		t.Error("no flush cycles counted")
	}
}

// TestEgressOverflowCountedNeverBlocks pins the back-pressure policy: a
// full shard ring drops the packet (counted) instead of blocking the
// sender — a stalled flusher must never stall the heartbeat grid. With the
// flusher stalled (see stallFlusher) the ring deterministically fills.
func TestEgressOverflowCountedNeverBlocks(t *testing.T) {
	n, err := NewUDPNetwork(UDPConfig{LocalID: 1, Listen: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { n.Close() })
	ring := n.egress.shards[uint64(2)%egressShards].ring
	m := &neko.Message{From: 1, To: 2, Type: neko.MsgHeartbeat}

	release := stallFlusher(t, n, 2)
	const overflow = 16
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < egressRingCap+overflow; i++ {
			m.Seq = int64(i)
			n.enqueue(m)
		}
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		release()
		t.Fatal("enqueue blocked on a full ring")
	}
	drops, held := n.EgressStats().RingDrops, ring.Len()
	release()
	if drops != overflow {
		t.Errorf("ring drops = %d, want %d", drops, overflow)
	}
	if held != egressRingCap {
		t.Errorf("shard holds %d packets, want full ring of %d", held, egressRingCap)
	}
}

// TestEgressUnknownPeerDropped pins the resolve step: a destination
// removed between enqueue and flush is dropped at the peer-table lookup,
// and traffic to known peers keeps flowing.
func TestEgressUnknownPeerDropped(t *testing.T) {
	a, b := batchedPair(t, UDPConfig{})
	rcv := &batchRecv{}
	if _, err := a.Attach(1, rcv); err != nil {
		t.Fatal(err)
	}
	sender, err := b.Attach(2, recvFunc(func(*neko.Message) {}))
	if err != nil {
		t.Fatal(err)
	}
	// Peer 9 was never added on b: the packet is enqueued (the producer
	// does not resolve) and dropped at flush time.
	sender.Send(&neko.Message{From: 2, To: 9, Type: neko.MsgHeartbeat, Seq: 0, SentAt: b.Clock().Now()})
	sender.Send(&neko.Message{From: 2, To: 1, Type: neko.MsgHeartbeat, Seq: 1, SentAt: b.Clock().Now()})
	waitReceived(t, a, 1)
	st := waitEgress(t, b, "known-peer packet flushed", func(st EgressStats) bool {
		return st.Packets >= 1
	})
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

// TestEgressSendErrorsCounted pins where each failure is counted: an
// unencodable message fails on the producer synchronously; a dead socket
// surfaces asynchronously from the flusher. Both end up in SendErrors
// instead of vanishing.
func TestEgressSendErrorsCounted(t *testing.T) {
	a, _ := batchedPair(t, UDPConfig{})
	sender, err := a.Attach(1, recvFunc(func(*neko.Message) {}))
	if err != nil {
		t.Fatal(err)
	}
	// Encode error: counted on the producer before anything is queued.
	sender.Send(&neko.Message{From: 1, To: 2, Payload: make([]byte, maxPayload+1)})
	if got := a.SendErrors(); got != 1 {
		t.Fatalf("send errors after oversized payload = %d, want 1", got)
	}
	if got := a.EgressStats().Packets; got != 0 {
		t.Fatalf("packets = %d, want 0", got)
	}
	// Socket error: the flusher hits it on the next flush cycle.
	a.conn.Close()
	sender.Send(&neko.Message{From: 1, To: 2, Type: neko.MsgHeartbeat, Seq: 1, SentAt: a.Clock().Now()})
	waitEgress(t, a, "flush-level send error", func(st EgressStats) bool {
		return st.SendErrors >= 1
	})
	if got := a.SendErrors(); got != 2 {
		t.Errorf("send errors after dead socket = %d, want 2", got)
	}
}

// TestEgressSendZeroAllocSteadyState pins the tentpole property on the
// send side: once the buffer pool is warm, the batched egress path —
// encode, ring push, sweep, resolve, sendmmsg flush, recycle — performs
// zero allocations per heartbeat across producer and flusher goroutines.
func TestEgressSendZeroAllocSteadyState(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc accounting holds only in normal builds")
	}
	a, b := batchedPair(t, UDPConfig{})
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
		// Wait until the flusher publishes the packet count: the recycle
		// happens before that, so the next round's Get hits the pool. Also
		// wait for delivery on a so the receiver's work is charged to the
		// measurement too.
		for {
			_, received, _ := a.Stats()
			if received >= sent && b.EgressStats().Packets >= sent {
				return
			}
			runtime.Gosched()
		}
	}
	for i := 0; i < 50; i++ {
		sendAndDrain() // warm the buffer pool and the flusher scratch
	}
	if avg := testing.AllocsPerRun(200, sendAndDrain); avg != 0 {
		t.Errorf("steady-state batched send allocates %.2f/op, want 0", avg)
	}
	st := b.EgressStats()
	if st.RingDrops != 0 || st.SendErrors != 0 {
		t.Errorf("drops=%d errors=%d during alloc run, want 0", st.RingDrops, st.SendErrors)
	}
}

// TestEgressCloseDrainsQueued pins the shutdown path: packets still
// queued when the endpoint closes are recycled, not sent, and Close does
// not deadlock against a parked or mid-cycle flusher.
func TestEgressCloseDrainsQueued(t *testing.T) {
	_, b := batchedPair(t, UDPConfig{})
	sender, err := b.Attach(2, recvFunc(func(*neko.Message) {}))
	if err != nil {
		t.Fatal(err)
	}
	// The flusher is stalled mid-cycle holding one packet; everything sent
	// now stays queued until Close.
	release := stallFlusher(t, b, 1)
	const queued = 64
	for i := int64(0); i < queued; i++ {
		sender.Send(&neko.Message{From: 2, To: 1, Type: neko.MsgHeartbeat, Seq: i, SentAt: b.Clock().Now()})
	}
	done := make(chan struct{})
	go func() {
		b.Close()
		close(done)
	}()
	// Let the flusher go only once the endpoint is marked closed, so it
	// finishes the batch it holds and then finds the shutdown signal.
	<-b.closed
	release()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Close deadlocked against the egress flusher")
	}
	// The packet the flusher already held may still go out (or fail on the
	// closing socket); none of the queued ones may.
	if st := b.EgressStats(); st.Packets > 1 {
		t.Errorf("%d packets flushed, want at most the one the flusher already held (%d queued at close)", st.Packets, queued)
	}
}
