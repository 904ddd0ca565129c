package transport

import (
	"math"
	"net"
	"net/netip"
	"sync"
	"sync/atomic"
	"time"

	"wanfd/internal/neko"
	"wanfd/internal/telemetry"
)

// maxDrainBatch is how many datagrams one readiness wakeup pulls before
// stamping and delivering them.
const maxDrainBatch = 64

// unmapAP normalizes an address-port to its canonical form (v4-mapped v6
// unwrapped to v4) so dual-stack sockets produce addresses that compare
// equal to the resolved peer-table keys.
func unmapAP(ap netip.AddrPort) netip.AddrPort {
	return netip.AddrPortFrom(ap.Addr().Unmap(), ap.Port())
}

// pending is one drained datagram between decode and delivery: the decoded
// message itself, the sender's wall-clock send time, the source address
// (already Unmap()ed) and whether it resolved to a registered peer (which
// also stamps the message with that peer's id and handle).
type pending struct {
	m        neko.Message
	sentUnix int64
	src      netip.AddrPort
	known    bool
}

// rxBatch is one delivery path's batch — a reader's or an Injector's: the
// datagrams of one drain cycle decoded in place, the pointers handed to the
// receiver, and the path's InFlight slot. The next batch overwrites every
// message, so a delivered message, Payload included, is valid only for
// its delivery call.
type rxBatch struct {
	p        [maxDrainBatch]pending
	n        int
	msgs     [maxDrainBatch]*neko.Message
	inflight *atomic.Int64
}

// newBatch returns a delivery path's batch, registering its InFlight slot
// for the endpoint's lifetime.
func (n *UDPNetwork) newBatch() *rxBatch {
	return &rxBatch{inflight: n.ingest.newStamp()}
}

// decode decodes one datagram into b's next slot. A malformed datagram is
// counted and leaves the slot free. The caller keeps b.n below
// maxDrainBatch.
func (n *UDPNetwork) decode(b *rxBatch, pkt []byte, src netip.AddrPort) {
	p := &b.p[b.n]
	sentUnix, err := DecodeInto(&p.m, pkt)
	if err != nil {
		n.malformed.Add(1)
		return
	}
	p.sentUnix, p.src, p.known = sentUnix, src, false
	b.n++
}

// ingestState is the receive pipeline's shared state: the health counters
// and the delivery paths' InFlight slots.
type ingestState struct {
	drains     atomic.Uint64 // completed drain cycles
	unknownSrc atomic.Uint64 // datagrams from addresses that are not registered peers

	batchHist *telemetry.Histogram // datagrams per drain cycle

	// stamps holds one slot per delivery path (reader or injector): the
	// receive stamp of the batch it is delivering, noStamp while idle.
	// Copy-on-write, so InFlight reads it without a lock.
	stampMu sync.Mutex
	stamps  atomic.Pointer[[]*atomic.Int64]
}

// noStamp marks a delivery path with no batch in flight.
const noStamp = math.MaxInt64

// newStamp registers one more delivery path and returns its slot.
func (ig *ingestState) newStamp() *atomic.Int64 {
	s := new(atomic.Int64)
	s.Store(noStamp)
	ig.stampMu.Lock()
	defer ig.stampMu.Unlock()
	var next []*atomic.Int64
	if old := ig.stamps.Load(); old != nil {
		next = append(next, *old...)
	}
	next = append(next, s)
	ig.stamps.Store(&next)
	return s
}

// InFlight reports the earliest receive stamp of a batch still being
// delivered, math.MaxInt64 when none is: the hold a monitor's timing wheel
// honours (sched.Config.InFlight), so that no deadline expires while a
// heartbeat stamped before it waits on a stalled delivery.
func (n *UDPNetwork) InFlight() time.Duration {
	at := time.Duration(noStamp)
	if p := n.ingest.stamps.Load(); p != nil {
		for _, s := range *p {
			if v := time.Duration(s.Load()); v < at {
				at = v
			}
		}
	}
	return at
}

// IngestStats is a snapshot of the receive pipeline's health counters.
type IngestStats struct {
	// Drains is the number of completed drain cycles; Received/Drains is
	// the mean batch size.
	Drains uint64
	// RingDrops is always 0: the reader delivers each batch itself, so
	// there is no ring to overflow. Receive-side overflow is KernelDrops.
	RingDrops uint64
	// PoolMisses is always 0: each delivery path decodes into a batch it
	// owns, so there is no message pool to miss.
	PoolMisses uint64
	// UnknownSource counts well-formed datagrams discarded because their
	// source address is not a registered peer; they are never delivered or
	// answered under the id they claim on the wire.
	UnknownSource uint64
	// KernelDrops counts datagrams the kernel discarded because a reader
	// socket's receive buffer was full — the detectors (or a blocking
	// callback) could not keep up with the network. Read from the sockets
	// when the snapshot is taken; always 0 where the platform does not
	// report it (anything but linux).
	KernelDrops uint64
}

// IngestStats returns the receive pipeline counters.
func (n *UDPNetwork) IngestStats() IngestStats {
	ig := n.ingest
	return IngestStats{
		Drains:        ig.drains.Load(),
		UnknownSource: ig.unknownSrc.Load(),
		KernelDrops:   n.kernelDrops(),
	}
}

// kernelDrops sums the receive-buffer drop counters of the reader sockets.
func (n *UDPNetwork) kernelDrops() uint64 {
	var total uint64
	for _, c := range n.readers {
		total += socketDrops(c)
	}
	return total
}

// startIngest opens the reader sockets and launches one drain loop per
// socket. Extra SO_REUSEPORT readers degrade gracefully: if an additional
// socket cannot be opened the endpoint runs with fewer readers.
func (n *UDPNetwork) startIngest() {
	n.readers = []*net.UDPConn{n.conn}
	for len(n.readers) < maxReaders(n.cfg.Readers) {
		c, err := listenUDP(n.conn.LocalAddr().String())
		if err != nil {
			break
		}
		n.readers = append(n.readers, c)
	}
	ig := n.ingest
	if r := n.cfg.Telemetry; r != nil {
		ig.batchHist = r.Histogram(telemetry.MetricIngestBatchSize,
			"datagrams drained per readiness wakeup",
			[]float64{1, 2, 4, 8, 16, 32, 64})
		r.CounterFunc(telemetry.MetricIngestDrains,
			"completed ingest drain cycles",
			func() float64 { return float64(ig.drains.Load()) })
		r.CounterFunc(telemetry.MetricIngestUnknownSource,
			"datagrams discarded because their source address is not a registered peer",
			func() float64 { return float64(ig.unknownSrc.Load()) })
		r.CounterFunc(telemetry.MetricIngestKernelDrops,
			"datagrams the kernel dropped on full reader socket buffers",
			func() float64 { return float64(n.kernelDrops()) })
	}
	for _, c := range n.readers {
		n.wg.Add(1)
		go n.drainLoop(c)
	}
}

// processBatch runs one drained batch to completion on the calling (reader
// or injector) goroutine:
//
//  1. stamp the whole batch with a single clock reading — every datagram
//     already sitting in the socket buffer was received "now" to within
//     the drain-cycle duration (see DESIGN.md §10 for the QoS bound);
//  2. resolve all source addresses to peers under one read-lock
//     acquisition;
//  3. after unlocking, discard datagrams from unregistered addresses,
//     answer time-sync messages inline, and deliver the rest as one
//     same-stamp batch.
//
// Per-peer order holds by construction: one reader handles a source's
// datagrams in arrival order (SO_REUSEPORT hashes a 4-tuple to one socket).
// The lock is never held across the delivery or a syscall
// (internal/analysis.MutexHold enforces this shape repo-wide). b's InFlight
// slot holds a lower bound of the batch's stamp from before the stamp is
// taken until the delivery ends. The expiry driver reads its clock before
// the slots, so it either sees this batch or read a time no later than its
// stamp. processBatch empties b.
func (n *UDPNetwork) processBatch(b *rxBatch) {
	batch := b.p[:b.n]
	b.n = 0
	if len(batch) == 0 {
		return
	}
	ig := n.ingest
	b.inflight.Store(int64(n.clk.Now()))
	stamp := n.clk.Now()
	ig.drains.Add(1)
	ig.batchHist.Observe(float64(len(batch)))

	n.peerMu.RLock()
	for i := range batch {
		if ps := n.lookupAddrLocked(batch[i].src); ps != nil {
			batch[i].m.From, batch[i].m.Handle = ps.id, ps.handle
			batch[i].known = true
		}
	}
	n.peerMu.RUnlock()

	msgs := b.msgs[:0]
	for i := range batch {
		p := &batch[i]
		switch {
		case !p.known:
			// The wire's From is a claim, not an identity: a stranger must
			// not refresh (or be answered as) whichever peer owns that id.
			ig.unknownSrc.Add(1)
		case p.m.Type == MsgTimeReq:
			n.handleTimeReq(&p.m, p.src)
		case p.m.Type == MsgTimeResp:
			n.handleTimeResp(&p.m)
		default:
			// Map the sender's wall-clock timestamp onto the local run
			// clock.
			p.m.SentAt = time.Duration(p.sentUnix - n.epochNano)
			msgs = append(msgs, &p.m)
		}
	}
	if len(msgs) > 0 {
		n.deliver(msgs, stamp)
	}
	b.inflight.Store(noStamp)
}

// deliver hands one same-stamp batch to the attached receiver — one
// ReceiveBatch where it has one, else one Receive per message — and then
// poisons the messages (under -race): none outlives its delivery call.
func (n *UDPNetwork) deliver(batch []*neko.Message, at time.Duration) {
	box := n.receiver.Load()
	if box == nil {
		n.dropped.Add(uint64(len(batch)))
		return
	}
	if box.br != nil {
		box.br.ReceiveBatch(batch, at)
	} else {
		for _, m := range batch {
			box.r.Receive(m)
		}
	}
	n.received.Add(uint64(len(batch)))
	poison(batch)
}

// Injector feeds raw packets through the endpoint's receive pipeline
// in-process, bypassing the kernel socket — the deterministic harness for
// benchmarks and tests. It is a delivery path with its own batch, so a
// single Injector must not be shared across goroutines.
type Injector struct {
	n *UDPNetwork
	b *rxBatch
}

// NewInjector returns a packet injector for this endpoint. Like a reader,
// it registers an InFlight slot for the endpoint's lifetime, so make few.
func (n *UDPNetwork) NewInjector() *Injector {
	return &Injector{n: n, b: n.newBatch()}
}

// InjectBatch runs packets through the exact receive path, in drain-sized
// chunks (each chunk one stamped batch), and returns once every packet has
// been delivered to the attached receiver. srcs must be parallel to pkts.
func (in *Injector) InjectBatch(pkts [][]byte, srcs []netip.AddrPort) {
	for len(pkts) > 0 {
		chunk := min(len(pkts), maxDrainBatch)
		for i := 0; i < chunk; i++ {
			in.n.decode(in.b, pkts[i], unmapAP(srcs[i]))
		}
		in.n.processBatch(in.b)
		pkts, srcs = pkts[chunk:], srcs[chunk:]
	}
}
