package wanfd

// Injector-driven harness for the production MultiMonitor, shared by
// TestPipelineZeroAlloc (the allocation gate) and the two measurements
// kept here: BenchmarkPipeline, both directions at once from 1k to 2^20
// peers, and BenchmarkCluster1k, the price of telemetry and membership
// churn on the dispatch path. Real-socket figures live in bench/.

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"net/netip"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"wanfd/internal/neko"
	"wanfd/internal/telemetry"
	"wanfd/internal/transport"
)

const (
	benchClusterPeers = 1024
	// benchIngestChunk is how many datagrams each InjectBatch call carries —
	// the injector's analogue of one socket drain cycle.
	benchIngestChunk = 64
)

// benchPeerNames precomputes the member names so the hot loop does no
// formatting.
func benchPeerNames(n int) []string {
	names := make([]string, n)
	for i := range names {
		names[i] = fmt.Sprintf("peer-%05d", i)
	}
	return names
}

// benchPeerAddr gives peer i a unique loopback endpoint. Addresses walk
// the 127.0.0.0/8 block on a fixed port instead of walking ports on
// 127.0.0.1: the port space tops out around 45k peers, the loopback block
// holds the 2^20-peer configuration.
func benchPeerAddr(i int) string {
	return fmt.Sprintf("127.%d.%d.%d:20001", 1+(i>>16), (i>>8)&0xff, i&0xff)
}

// benchPeerAddr6 is benchPeerAddr's IPv6 counterpart: documentation-prefix
// addresses on the same fixed port. Nothing listens there, so it serves the
// receive path only.
func benchPeerAddr6(i int) string {
	return fmt.Sprintf("[2001:db8::%x:%x]:20001", i>>16, i&0xffff)
}

// benchCluster builds a MultiMonitor over the named peers, peer i at
// addr(i); the caller's cleanup closes it.
func benchCluster(tb testing.TB, names []string, addr func(int) string, opts ...Option) *MultiMonitor {
	tb.Helper()
	mm, err := NewMultiMonitor("127.0.0.1:0", opts...)
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { _ = mm.Close() })
	for i, name := range names {
		if err := mm.AddPeer(name, addr(i)); err != nil {
			tb.Fatal(err)
		}
	}
	return mm
}

// peerHandleOf returns the handle the transport stamps on the named peer's
// messages, its record's arena index: what a test needs to enter the
// receive path at MultiMonitor.deliver, past the transport's address lookup.
func peerHandleOf(tb testing.TB, mm *MultiMonitor, name string) uint64 {
	tb.Helper()
	mm.mu.RLock()
	idx, ok := mm.find(peerNameHash(name), name)
	mm.mu.RUnlock()
	if !ok {
		tb.Fatalf("no peer %q", name)
	}
	return uint64(idx)
}

// peerSenderOf returns the sender the named peer's interval controller
// would have: its record's address and handle.
func peerSenderOf(tb testing.TB, mm *MultiMonitor, name string) peerSender {
	tb.Helper()
	mm.mu.RLock()
	defer mm.mu.RUnlock()
	idx, ok := mm.find(peerNameHash(name), name)
	if !ok {
		tb.Fatalf("no peer %q", name)
	}
	return peerSender{mm.net, mm.ents.Get(idx).addr, uint64(idx)}
}

// liveRecords counts the peer-arena slots in use: members plus any slot an
// AddPeer or RemovePeer in flight still holds.
func liveRecords(mm *MultiMonitor) int {
	mm.mu.RLock()
	defer mm.mu.RUnlock()
	return mm.ents.Len()
}

// pipelineHarness drives one MultiMonitor endpoint through the transport
// Injector: pre-encoded heartbeat datagrams are decoded, attributed,
// stamped and delivered to each peer's detector update and wheel re-arm on
// the calling goroutine — the full receive path minus the kernel socket.
// With egress set, every offered heartbeat is also sent to its peer — a real
// socket write on the calling goroutine (destinations are loopback addresses
// with no listener, so the kernel pays the full local delivery attempt).
type pipelineHarness struct {
	mm     *MultiMonitor
	inj    *transport.Injector
	egress bool
	pkts   [][]byte
	srcs   []netip.AddrPort
	seqs   []int64
	// dsts are the peers' interval-controller senders, which address the
	// egress half's sends.
	dsts []peerSender
	msg  neko.Message
	// Sender timestamps advance 1µs per packet from the wall-clock start,
	// read once: offer performs no clock reads for the ingest half, only
	// in-place header patches.
	wallBase  int64
	sent      int
	chunkPkts [][]byte
	chunkSrcs []netip.AddrPort
}

func newPipelineHarness(tb testing.TB, peers int, egress bool, addr func(int) string, opts ...Option) *pipelineHarness {
	tb.Helper()
	names := benchPeerNames(peers)
	h := &pipelineHarness{
		mm:        benchCluster(tb, names, addr, opts...),
		egress:    egress,
		pkts:      make([][]byte, peers),
		srcs:      make([]netip.AddrPort, peers),
		seqs:      make([]int64, peers),
		dsts:      make([]peerSender, peers),
		msg:       neko.Message{From: multiMonitorID, Type: neko.MsgHeartbeat},
		wallBase:  time.Now().UnixNano(),
		chunkPkts: make([][]byte, 0, benchIngestChunk),
		chunkSrcs: make([]netip.AddrPort, 0, benchIngestChunk),
	}
	h.inj = h.mm.net.NewInjector()
	// Every peer's datagram starts as the same bytes; offer patches seq and
	// sender timestamp in place, so each peer needs its own copy.
	proto, err := transport.Encode(nil, &neko.Message{Type: neko.MsgHeartbeat, To: multiMonitorID}, 0)
	if err != nil {
		tb.Fatal(err)
	}
	for i, name := range names {
		h.pkts[i] = bytes.Clone(proto)
		h.srcs[i] = netip.MustParseAddrPort(addr(i))
		h.dsts[i] = peerSenderOf(tb, h.mm, name)
	}
	return h
}

// offer carries n ≤ benchIngestChunk heartbeats, round-robin over the peer
// set (the interleaved arrival order a WAN monitor sees), into the
// pipeline as one injected batch; every one has reached its detector (and,
// with egress set, every send its socket) when offer returns.
func (h *pipelineHarness) offer(n int) {
	h.chunkPkts, h.chunkSrcs = h.chunkPkts[:0], h.chunkSrcs[:0]
	clk := h.mm.net.Clock()
	for ; n > 0; n-- {
		p := h.sent % len(h.pkts)
		h.seqs[p]++
		if h.egress {
			// The interval controllers' sender: the record's address, on
			// the endpoint the ingest half receives on.
			h.msg.Seq = h.seqs[p]
			h.msg.SentAt = clk.Now()
			h.dsts[p].Send(&h.msg)
		}
		binary.BigEndian.PutUint64(h.pkts[p][12:20], uint64(h.seqs[p]))
		binary.BigEndian.PutUint64(h.pkts[p][20:28], uint64(h.wallBase+int64(h.sent)*1000))
		h.chunkPkts = append(h.chunkPkts, h.pkts[p])
		h.chunkSrcs = append(h.chunkSrcs, h.srcs[p])
		h.sent++
	}
	h.inj.InjectBatch(h.chunkPkts, h.chunkSrcs)
}

// checkLossless fails the run on any undelivered or malformed packet or
// send error: what was measured is a pipeline that carried every heartbeat.
func (h *pipelineHarness) checkLossless(tb testing.TB) {
	tb.Helper()
	if _, rcv, mal := h.mm.net.Stats(); mal != 0 || int(rcv) != h.sent {
		tb.Fatalf("delivered %d of %d offered heartbeats, %d malformed", rcv, h.sent, mal)
	}
	if errs := h.mm.net.SendErrors(); errs != 0 {
		tb.Fatalf("%d send errors", errs)
	}
	if st := h.mm.net.EgressStats(); h.egress && int(st.Packets) != h.sent {
		tb.Fatalf("wrote %d of %d offered heartbeats", st.Packets, h.sent)
	}
}

// BenchmarkPipeline is the both-directions scale runner: one op writes one
// heartbeat to the socket and receives one through the batched ingest, both
// synchronous, so ns/op is delivered throughput. 1M holds 2^20 peers in the
// arena-backed peer table (pre-sized through ExpectedPeers), and completing
// it is the lossless demonstration at that size.
func BenchmarkPipeline(b *testing.B) {
	const peers1M = 1 << 20
	for _, sc := range []struct {
		name  string
		peers int
		opts  []Option
	}{
		{"1k", benchClusterPeers, nil},
		{"100k", 102400, nil},
		{"1M", peers1M, []Option{WithPipeline(PipelineConfig{ExpectedPeers: peers1M})}},
	} {
		b.Run(sc.name, func(b *testing.B) {
			if testing.Short() && sc.peers == peers1M {
				b.Skip("registering 2^20 peers dominates the wall clock")
			}
			h := newPipelineHarness(b, sc.peers, true, benchPeerAddr, sc.opts...)
			b.ReportAllocs()
			b.ResetTimer()
			for left := b.N; left > 0; left -= benchIngestChunk {
				h.offer(min(left, benchIngestChunk))
			}
			b.StopTimer()
			h.checkLossless(b)
		})
	}
}

// runReceiveBench measures the dispatch path: one op is attributing and
// dispatching one heartbeat to its peer's detector, round-robin over the
// members. In the flapping scenario a background goroutine joins and
// leaves a member as fast as it can — the membership write path. Delivery
// takes no table lock, so the join/leave critical sections stall queries,
// not dispatch, and the measured dispatch latency stays flat. Heartbeats enter at the monitor's
// receiver, so the benchmark measures the delivery path rather than the
// transport.
func runReceiveBench(b *testing.B, mm *MultiMonitor, names []string, flapping bool) {
	b.Helper()
	stop := make(chan struct{})
	var wg sync.WaitGroup
	var churns atomic.Int64
	if flapping {
		wg.Add(1)
		go func() {
			defer wg.Done()
			const name = "flapper"
			const addr = "127.0.0.1:39999"
			for {
				select {
				case <-stop:
					return
				default:
				}
				if err := mm.AddPeer(name, addr); err != nil {
					b.Error(err)
					return
				}
				if err := mm.RemovePeer(name); err != nil {
					b.Error(err)
					return
				}
				churns.Add(1)
			}
		}()
	}
	peers := len(names)
	seqs := make([]int64, peers)
	handles := make([]uint64, peers)
	for i, name := range names {
		handles[i] = peerHandleOf(b, mm, name)
	}
	msg := &neko.Message{Type: neko.MsgHeartbeat}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := i % peers
		seqs[p]++
		msg.Handle = handles[p]
		msg.Seq = seqs[p]
		msg.SentAt = mm.ctx.Clock.Now()
		mm.deliver(msg, msg.SentAt)
	}
	b.StopTimer()
	// Sampled before teardown, with every member's deadline still armed:
	// the steady-state scheduling footprint.
	b.ReportMetric(float64(runtime.NumGoroutine()), "goroutines")
	close(stop)
	wg.Wait()
	if flapping && b.N > 0 {
		b.ReportMetric(float64(churns.Load())/float64(b.N), "churns/op")
	}
}

// BenchmarkCluster1k drives the MultiMonitor at 1024 peers, with a
// static membership and with a member continuously joining and leaving.
func BenchmarkCluster1k(b *testing.B) {
	names := benchPeerNames(benchClusterPeers)
	for _, sc := range []struct {
		name     string
		flapping bool
	}{
		{"steady", false},
		{"flapping", true},
	} {
		b.Run(sc.name+"/plain", func(b *testing.B) {
			runReceiveBench(b, benchCluster(b, names, benchPeerAddr), names, sc.flapping)
		})
		// Same stack with live telemetry: every delivery observes two
		// histograms. The plain (uninstrumented) run above doubles as the
		// disabled path — nil registry, dead branches only.
		b.Run(sc.name+"/telemetry", func(b *testing.B) {
			mm := benchCluster(b, names, benchPeerAddr, WithTelemetry(telemetry.NewRegistry(256)))
			runReceiveBench(b, mm, names, sc.flapping)
		})
	}
}
