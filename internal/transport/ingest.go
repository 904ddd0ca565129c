package transport

import (
	"net"
	"net/netip"
	"runtime"
	"sync/atomic"
	"time"

	"wanfd/internal/freelist"
	"wanfd/internal/neko"
	"wanfd/internal/telemetry"
)

// Batched ingest pipeline tuning. The default shard count matches the
// router's so one consumer goroutine feeds one router shard's worth of
// peers (UDPConfig.IngestShards widens it at scale); the ring capacity
// bounds how far a burst can run ahead of the detectors before packets
// are dropped (counted, never blocking the socket); the drain batch is
// how many datagrams one readiness wakeup pulls before stamping them.
const (
	ingestShards  = 16
	ingestRingCap = 512
	maxDrainBatch = 64
	// sendBufPoolCap is the encode-buffer pool's headroom beyond what the
	// egress rings and flusher can hold: buffers concurrent senders have
	// taken but not yet queued.
	sendBufPoolCap = 64
)

// unmapAP normalizes an address-port to its canonical form (v4-mapped v6
// unwrapped to v4) so dual-stack sockets produce addresses that compare
// equal to the resolved peer-table keys.
func unmapAP(ap netip.AddrPort) netip.AddrPort {
	return netip.AddrPortFrom(ap.Addr().Unmap(), ap.Port())
}

// pending is one drained datagram between decode and dispatch: the pooled
// message, the sender's wall-clock send time, the source address (already
// Unmap()ed) and, once resolved, the peer clock offset.
type pending struct {
	m        *neko.Message
	sentUnix int64
	src      netip.AddrPort
	off      int64
}

// ingestItem is one message handed from a drain loop to a shard consumer,
// carrying the batch receive stamp.
type ingestItem struct {
	m      *neko.Message
	recvAt time.Duration
}

// ingestShard is one lane of the fan-in: a bounded MPSC ring (multi:
// several SO_REUSEPORT drain loops may produce; single: one consumer
// goroutine) plus a latching wake channel. The cap-1 channel makes the
// notify lost-wakeup-free without ever blocking the producer.
type ingestShard struct {
	ring *freelist.Ring[ingestItem]
	wake chan struct{}
}

// ingestState is the batched pipeline: the message freelist shared by all
// drain loops and the per-shard hand-off rings. The shard count is fixed
// at construction (a power of two, at most 64 so one uint64 can mask the
// shards a batch touched).
type ingestState struct {
	shards    []ingestShard
	shardMask uint64
	msgs      *freelist.Pool[*neko.Message]

	drains    atomic.Uint64 // completed drain cycles
	ringDrops atomic.Uint64 // messages dropped because a shard ring was full

	batchHist *telemetry.Histogram // datagrams per drain cycle
}

// IngestStats is a snapshot of the batched pipeline's health counters.
type IngestStats struct {
	// Drains is the number of completed drain cycles; Received/Drains is
	// the mean batch size.
	Drains uint64
	// RingDrops counts messages discarded because a shard ring was full —
	// the consumers (detectors) could not keep up with the socket.
	RingDrops uint64
	// PoolMisses counts messages allocated because the freelist was empty;
	// steady growth means more messages are in flight than msgPoolCap.
	PoolMisses uint64
}

// IngestStats returns the batched pipeline counters.
func (n *UDPNetwork) IngestStats() IngestStats {
	ig := n.ingest
	return IngestStats{
		Drains:     ig.drains.Load(),
		RingDrops:  ig.ringDrops.Load(),
		PoolMisses: ig.msgs.Misses(),
	}
}

// startIngest builds the pipeline and launches the per-shard consumers and
// the drain loop(s). Extra SO_REUSEPORT readers degrade gracefully: if an
// additional socket cannot be opened the endpoint runs with fewer readers.
func (n *UDPNetwork) startIngest() {
	shards := shardCount(n.cfg.IngestShards, ingestShards)
	// The pool covers every message the pipeline can have in flight: all
	// shard rings full plus a drain batch per reader being decoded and a
	// batch per consumer being delivered.
	poolCap := shards*ingestRingCap + 4*maxDrainBatch
	ig := &ingestState{
		shards:    make([]ingestShard, shards),
		shardMask: uint64(shards - 1),
		msgs:      freelist.NewPool(poolCap, func() *neko.Message { return &neko.Message{} }),
	}
	for i := range ig.shards {
		ig.shards[i].ring = freelist.NewRing[ingestItem](ingestRingCap)
		ig.shards[i].wake = make(chan struct{}, 1)
	}
	n.ingest = ig
	if r := n.cfg.Telemetry; r != nil {
		ig.batchHist = r.Histogram(telemetry.MetricIngestBatchSize,
			"datagrams drained per readiness wakeup",
			[]float64{1, 2, 4, 8, 16, 32, 64})
		r.CounterFunc(telemetry.MetricIngestDrains,
			"completed ingest drain cycles",
			func() float64 { return float64(ig.drains.Load()) })
		r.CounterFunc(telemetry.MetricIngestRingDrops,
			"messages dropped on full ingest shard rings",
			func() float64 { return float64(ig.ringDrops.Load()) })
		r.CounterFunc(telemetry.MetricIngestPoolMisses,
			"ingest message pool misses (fresh allocations)",
			func() float64 { return float64(ig.msgs.Misses()) })
		r.GaugeFunc(telemetry.MetricIngestRingDepth,
			"messages queued across ingest shard rings",
			func() float64 {
				total := 0
				for i := range ig.shards {
					total += ig.shards[i].ring.Len()
				}
				return float64(total)
			})
	}
	for i := range ig.shards {
		n.wg.Add(1)
		go n.consumeShard(&ig.shards[i])
	}
	conns := []*net.UDPConn{n.conn}
	for len(conns) < maxReaders(n.cfg.Readers) {
		c, err := listenUDP(n.conn.LocalAddr().String())
		if err != nil {
			break
		}
		n.extra = append(n.extra, c)
		conns = append(conns, c)
	}
	for _, c := range conns {
		n.wg.Add(1)
		go n.drainLoop(c)
	}
}

// recycle poisons (under -race) and returns a message to the freelist.
// Called only once the pipeline is done with the message; a receiver that
// retained a pooled heartbeat will read the poison and fail loudly.
func (n *UDPNetwork) recycle(m *neko.Message) {
	poison(m)
	n.ingest.msgs.Put(m)
}

// releaseBatch returns an undispatched batch to the freelist (shutdown
// path — no poisoning needed, nothing saw the messages).
func (n *UDPNetwork) releaseBatch(batch []pending) {
	for _, p := range batch {
		n.ingest.msgs.Put(p.m)
	}
}

// shardBuckets is a producer-owned scratch grouping one drain batch's
// messages by destination shard, so each shard ring is claimed with one
// cursor reservation per batch instead of one per message. Not safe for
// concurrent use — every producer (drain loop, injector) owns its own.
type shardBuckets struct {
	b [][]ingestItem
}

func newShardBuckets(shards int) *shardBuckets {
	s := &shardBuckets{b: make([][]ingestItem, shards)}
	for i := range s.b {
		s.b[i] = make([]ingestItem, 0, maxDrainBatch)
	}
	return s
}

// processBatch runs one drained batch through the pipeline:
//
//  1. stamp the whole batch with a single clock reading — every datagram
//     already sitting in the socket buffer was received "now" to within
//     the drain-cycle duration (see DESIGN.md §10 for the QoS bound);
//  2. resolve all source addresses to peers under one read-lock
//     acquisition;
//  3. after unlocking, answer time-sync messages inline, group the rest by
//     shard, hand each touched shard its run in one ring reservation, and
//     wake it once.
//
// The lock is never held across a channel operation or a syscall
// (internal/analysis.MutexHold enforces this shape repo-wide).
func (n *UDPNetwork) processBatch(batch []pending, bk *shardBuckets) {
	if len(batch) == 0 {
		return
	}
	ig := n.ingest
	stamp := n.clk.Now()
	ig.drains.Add(1)
	ig.batchHist.Observe(float64(len(batch)))

	n.peerMu.RLock()
	for i := range batch {
		if ps := n.lookupAddrLocked(batch[i].src); ps != nil {
			batch[i].m.From = ps.id
			batch[i].off = ps.offset.Load()
		}
	}
	n.peerMu.RUnlock()

	var touched uint64
	for i := range batch {
		p := &batch[i]
		switch p.m.Type {
		case MsgTimeReq:
			n.handleTimeReq(p.m)
			n.recycle(p.m)
			continue
		case MsgTimeResp:
			n.handleTimeResp(p.m, stamp)
			n.recycle(p.m)
			continue
		}
		// Map the sender's wall-clock timestamp onto the local run
		// clock, correcting the estimated peer clock offset.
		p.m.SentAt = time.Duration(p.sentUnix - n.epochNano - p.off)
		shard := uint64(uint32(p.m.From)) & ig.shardMask
		bk.b[shard] = append(bk.b[shard], ingestItem{m: p.m, recvAt: stamp})
		touched |= 1 << shard
	}
	for shard := 0; touched != 0; shard++ {
		if touched&(1<<shard) == 0 {
			continue
		}
		touched &^= 1 << shard
		items := bk.b[shard]
		pushed := 0
		for pushed < len(items) {
			k := ig.shards[shard].ring.TryPushN(items[pushed:])
			if k == 0 {
				break // ring full: the consumer cannot keep up
			}
			pushed += k
		}
		for _, it := range items[pushed:] {
			ig.ringDrops.Add(1)
			n.mDropped.Inc()
			n.recycle(it.m)
		}
		bk.b[shard] = items[:0]
		select {
		case ig.shards[shard].wake <- struct{}{}:
		default: // a wakeup is already latched
		}
	}
}

// consumeShard is one shard's consumer: it pops queued messages,
// accumulates runs that share a receive stamp, and delivers each run as a
// single batch. Heartbeats are recycled after delivery (the monitor
// contract: OnHeartbeat copies what it needs); other message types may be
// retained by upper layers, so their pooled message is simply not
// returned.
func (n *UDPNetwork) consumeShard(s *ingestShard) {
	defer n.wg.Done()
	items := make([]ingestItem, maxDrainBatch)
	batch := make([]*neko.Message, 0, maxDrainBatch)
	var at time.Duration
	for {
		k := s.ring.TryPopN(items)
		if k > 0 {
			for _, item := range items[:k] {
				if len(batch) > 0 && item.recvAt != at {
					n.deliver(batch, at)
					batch = batch[:0]
				}
				at = item.recvAt
				batch = append(batch, item.m)
				if len(batch) == maxDrainBatch {
					n.deliver(batch, at)
					batch = batch[:0]
				}
			}
			continue
		}
		if len(batch) > 0 {
			n.deliver(batch, at)
			batch = batch[:0]
			// The ring just went empty mid-burst: yield once and re-check
			// before paying the park/unpark round trip — on a busy pipeline
			// the producer's next run lands within a scheduler pass.
			runtime.Gosched()
			continue
		}
		select {
		case <-s.wake:
		case <-n.closed:
			// Drain anything still queued back to the freelist.
			for {
				k := s.ring.TryPopN(items)
				if k == 0 {
					return
				}
				for _, item := range items[:k] {
					n.ingest.msgs.Put(item.m)
				}
			}
		}
	}
}

// deliver hands one same-stamp batch to the attached receiver, preferring
// the widest interface it implements, then recycles the heartbeats.
func (n *UDPNetwork) deliver(batch []*neko.Message, at time.Duration) {
	box := n.receiver.Load()
	if box == nil {
		for _, m := range batch {
			n.mDropped.Inc()
			n.recycle(m)
		}
		return
	}
	switch {
	case box.br != nil:
		box.br.ReceiveBatch(batch, at)
	case box.tr != nil:
		for _, m := range batch {
			box.tr.ReceiveAt(m, at)
		}
	default:
		for _, m := range batch {
			box.r.Receive(m)
		}
	}
	n.received.Add(uint64(len(batch)))
	n.mReceived.Add(uint64(len(batch)))
	// Compact the recyclable heartbeats to the front of the (consumer-owned)
	// batch slice and return them in one freelist reservation.
	k := 0
	for _, m := range batch {
		if m.Type == neko.MsgHeartbeat {
			poison(m)
			batch[k] = m
			k++
		}
	}
	n.ingest.msgs.PutN(batch[:k])
}

// Injector feeds raw packets through the endpoint's receive pipeline
// in-process, bypassing the kernel socket — the deterministic harness for
// benchmarks and tests. It reuses one scratch batch, so a single Injector
// must not be shared across goroutines.
type Injector struct {
	n     *UDPNetwork
	batch []pending
	msgs  []*neko.Message
	bk    *shardBuckets
}

// NewInjector returns a packet injector for this endpoint.
func (n *UDPNetwork) NewInjector() *Injector {
	return &Injector{
		n:     n,
		batch: make([]pending, 0, maxDrainBatch),
		msgs:  make([]*neko.Message, maxDrainBatch),
		bk:    newShardBuckets(len(n.ingest.shards)),
	}
}

// InjectBatch runs packets through the exact receive path, in drain-sized
// chunks (each chunk one stamped batch). srcs must be parallel to pkts.
func (in *Injector) InjectBatch(pkts [][]byte, srcs []netip.AddrPort) {
	n := in.n
	for len(pkts) > 0 {
		chunk := len(pkts)
		if chunk > maxDrainBatch {
			chunk = maxDrainBatch
		}
		in.batch = in.batch[:0]
		msgs := in.msgs[:chunk]
		n.ingest.msgs.GetN(msgs)
		for i := 0; i < chunk; i++ {
			m := msgs[i]
			sentUnix, err := DecodeInto(m, pkts[i])
			if err != nil {
				n.malformed.Add(1)
				n.mDecodeErr.Inc()
				n.ingest.msgs.Put(m)
				continue
			}
			in.batch = append(in.batch, pending{m: m, sentUnix: sentUnix, src: unmapAP(srcs[i])})
		}
		n.processBatch(in.batch, in.bk)
		pkts, srcs = pkts[chunk:], srcs[chunk:]
	}
}
