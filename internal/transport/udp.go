package transport

import (
	"encoding/binary"
	"fmt"
	"net"
	"net/netip"
	"sync"
	"sync/atomic"
	"time"

	"wanfd/internal/arena"
	"wanfd/internal/clock"
	"wanfd/internal/neko"
	"wanfd/internal/sim"
	"wanfd/internal/telemetry"
)

// UDPConfig parameterizes a UDP network endpoint.
type UDPConfig struct {
	// LocalID is the process id of this host.
	LocalID neko.ProcessID
	// Listen is the local UDP address, e.g. ":7007" or "127.0.0.1:0".
	Listen string
	// Peers maps remote process ids to their UDP addresses.
	Peers map[neko.ProcessID]string
	// Telemetry, when non-nil, exports the packet counters
	// (sent/received/decode errors/drops). Nil disables instrumentation.
	Telemetry *telemetry.Registry
	// Readers is the number of reader sockets (and drain goroutines) the
	// ingest pipeline opens via SO_REUSEPORT; 0 or 1 means a single
	// reader. Values above 1 are honoured only where SO_REUSEPORT is
	// available (Linux) and are otherwise clamped to 1.
	Readers int
	// ExpectedPeers, when non-zero, pre-sizes the peer tables for that many
	// registered peers, so reaching the expected population never rehashes
	// under load.
	ExpectedPeers int
}

// peerState is one registered peer: its transport identity and the
// receiver's handle for it (stamped on every message from its address).
type peerState struct {
	id     neko.ProcessID
	ap     netip.AddrPort
	handle uint64
}

// receiverBox caches the Attach-time interface assertion so the hot path
// pays zero type switches: br is non-nil when the receiver supports batched
// delivery.
type receiverBox struct {
	r  neko.Receiver
	br neko.BatchReceiver
}

// UDPNetwork implements neko.Network over a real UDP socket for exactly one
// local process. Received heartbeat timestamps (Unix nanoseconds at the
// sender, per the paper's NTP-synchronized time base) are mapped onto the
// local run clock as they are; a receiver that corrects for a peer's clock
// offset subtracts the one SyncWith estimated itself.
//
// Reception runs to completion on the reader goroutine (see ingest.go): a
// non-blocking drain loop per reader socket pulls every queued datagram
// per readiness wakeup, decodes it into a batch the reader owns, stamps the
// drained batch with a single clock read and delivers it to the attached
// receiver itself before returning to the socket — zero allocations and no
// second goroutine between the kernel and the detectors, so the receiver
// must be safe for concurrent callers when Readers > 1, must copy what it
// keeps of a message (the next batch overwrites it), and a receiver that
// blocks stalls that socket (the kernel buffer absorbs, then drops —
// counted as IngestStats.KernelDrops). Sends run to completion too: Send
// encodes and writes the datagram on the caller's goroutine (see
// egress.go), so the endpoint's only goroutines are its readers.
type UDPNetwork struct {
	cfg       UDPConfig
	conn      *net.UDPConn
	epoch     time.Time
	epochNano int64
	clk       *sim.RealClock

	// peerMu guards the peer table, which is mutable at runtime (AddPeer/
	// RemovePeer) so a cluster monitor can change membership without
	// dropping the socket. The batched drain loop takes the read lock once
	// per batch, not once per packet.
	//
	// Peer records live in an index-addressed arena (one dense slab set
	// instead of one heap object per peer — see internal/arena); the three
	// indexes below map lookup keys to arena indices through open-addressed
	// tables, so registering a millionth peer costs no per-peer map entry
	// and the GC never walks a per-peer pointer graph. A *peerState from
	// peerArena is only valid while peerMu is held (RemovePeer frees and
	// zeroes the record under the write lock), so every accessor copies
	// what it needs out before unlocking.
	peerMu    sync.RWMutex
	peerArena *arena.Arena[peerState]
	// byID keys on the process id. byAddr indexes peers by source address
	// for receive attribution, both families in one table (see addrKey):
	// every lookup confirms the full address against the arena record.
	byID   *arena.Map64
	byAddr *arena.Map64

	receiver atomic.Pointer[receiverBox]
	attached atomic.Bool

	mu       sync.Mutex // guards the time-sync exchange state below
	pending  map[int64]chan clock.Sample
	nextSync int64

	// ingest is the receive pipeline's counters and InFlight slots.
	ingest *ingestState
	// readers are the sockets the drain loops read: conn first, then the
	// SO_REUSEPORT sockets beyond it.
	readers []*net.UDPConn

	wg     sync.WaitGroup
	closed chan struct{}

	// The packet counters, each exported as a counter series when the
	// endpoint has a registry (see instrument).
	sent        atomic.Uint64
	received    atomic.Uint64
	malformed   atomic.Uint64
	sendErrors  atomic.Uint64 // unencodable messages + writeErrors
	writeErrors atomic.Uint64 // datagrams the socket refused
	// dropped counts messages discarded for want of a receiver or of a
	// registered destination; discards from unknown sources are
	// ingestState.unknownSrc.
	dropped atomic.Uint64
}

// NewUDPNetwork opens the socket and starts the receive loop. Close must be
// called to release the socket.
func NewUDPNetwork(cfg UDPConfig) (*UDPNetwork, error) {
	if cfg.Listen == "" {
		return nil, fmt.Errorf("transport: missing listen address")
	}
	hint := cfg.ExpectedPeers
	if hint < len(cfg.Peers) {
		hint = len(cfg.Peers)
	}
	conn, err := listenUDP(cfg.Listen)
	if err != nil {
		return nil, fmt.Errorf("transport: listen %q: %w", cfg.Listen, err)
	}
	clk := sim.NewRealClock()
	n := &UDPNetwork{
		cfg:       cfg,
		conn:      conn,
		peerArena: arena.New[peerState](),
		byID:      arena.NewMap64(hint),
		byAddr:    arena.NewMap64(hint),
		epoch:     clk.Epoch(),
		epochNano: clk.Epoch().UnixNano(),
		clk:       clk,
		pending:   make(map[int64]chan clock.Sample),
		ingest:    &ingestState{},
		closed:    make(chan struct{}),
	}
	for id, addr := range cfg.Peers {
		if err := n.AddPeer(id, addr); err != nil {
			conn.Close()
			return nil, err
		}
	}
	n.instrument(cfg.Telemetry)
	n.startIngest()
	return n, nil
}

// instrument exports the packet counters as counter series sampled at
// scrape time, so counting a packet is one atomic add. No-op on a nil
// registry.
func (n *UDPNetwork) instrument(r *telemetry.Registry) {
	for _, c := range []struct {
		name, help string
		v          func() uint64
	}{
		{telemetry.MetricPacketsSent, "UDP packets sent.", n.sent.Load},
		{telemetry.MetricPacketsReceived, "Valid UDP packets received.", n.received.Load},
		{telemetry.MetricDecodeErrors, "Malformed inbound packets discarded.", n.malformed.Load},
		{telemetry.MetricPacketsDropped, "Packets discarded without delivery.",
			func() uint64 { return n.dropped.Load() + n.ingest.unknownSrc.Load() }},
		{telemetry.MetricSendErrors, "Messages lost to encode or socket write failures.", n.sendErrors.Load},
		{telemetry.MetricEgressSendErrors, "datagrams the socket refused (write errors and short writes)", n.writeErrors.Load},
	} {
		r.CounterFunc(c.name, c.help, func() float64 { return float64(c.v()) })
	}
}

// Clock returns the endpoint's run clock; protocol layers on this host must
// use it so timestamps share the endpoint's epoch.
func (n *UDPNetwork) Clock() sim.Clock { return n.clk }

// WallTime maps the endpoint clock's current reading to an absolute
// wall-clock instant — the sanctioned bridge for on-the-wire Unix
// timestamps and human-readable logs.
func (n *UDPNetwork) WallTime() time.Time { return n.clk.WallTime() }

// wallNano is WallTime as Unix nanoseconds, the unit the wire format and
// the NTP-style sync exchange carry.
func (n *UDPNetwork) wallNano() int64 { return n.clk.WallTime().UnixNano() }

// LocalAddr returns the bound UDP address.
func (n *UDPNetwork) LocalAddr() *net.UDPAddr {
	addr, _ := n.conn.LocalAddr().(*net.UDPAddr)
	return addr
}

var _ neko.Network = (*UDPNetwork)(nil)

// AddPeer registers a peer id and address at runtime. The id and the
// address must both be new: addresses identify senders, so two ids sharing
// one address would be indistinguishable on receive.
func (n *UDPNetwork) AddPeer(id neko.ProcessID, addr string) error {
	return n.AddPeerHandle(id, addr, 0)
}

// AddPeerHandle is AddPeer for a receiver with per-peer state of its own:
// every message from addr is delivered with Message.Handle set to handle,
// so the transport's address lookup is the receive path's only lookup.
func (n *UDPNetwork) AddPeerHandle(id neko.ProcessID, addr string, handle uint64) error {
	ap, err := resolveAddrPort(addr)
	if err != nil {
		return fmt.Errorf("transport: resolve peer %d %q: %w", id, addr, err)
	}
	n.peerMu.Lock()
	defer n.peerMu.Unlock()
	if _, dup := n.byID.Get(uint64(id)); dup {
		return fmt.Errorf("transport: peer %d already registered", id)
	}
	if other := n.lookupAddrLocked(ap); other != nil {
		return fmt.Errorf("transport: address %s already registered as peer %d", ap, other.id)
	}
	idx, ps := n.peerArena.Alloc()
	ps.id, ps.ap, ps.handle = id, ap, handle
	n.byID.Put(uint64(id), idx)
	n.byAddr.Put(addrKey(ap), idx)
	return nil
}

// resolveAddrPort turns a peer address into the canonical (unmapped) form
// the address tables key on. A literal ip:port is parsed in place; anything
// else (a host name, a bare ":port", a service name) goes to the resolver.
func resolveAddrPort(addr string) (netip.AddrPort, error) {
	if ap, err := netip.ParseAddrPort(addr); err == nil {
		return unmapAP(ap), nil
	}
	a, err := net.ResolveUDPAddr("udp", addr)
	if err != nil {
		return netip.AddrPort{}, err
	}
	return unmapAP(a.AddrPort()), nil
}

// RemovePeer deletes a peer registration.
// Packets from its address are no longer attributed to the id. The arena
// record is freed and its generation bumped, so any index captured before
// the removal resolves to nil rather than a reused slot.
func (n *UDPNetwork) RemovePeer(id neko.ProcessID) error {
	n.peerMu.Lock()
	defer n.peerMu.Unlock()
	idx, ok := n.byID.Delete(uint64(id))
	if !ok {
		return fmt.Errorf("transport: unknown peer %d", id)
	}
	n.byAddr.Remove(addrKey(n.peerArena.Get(idx).ap), func(i arena.Index) bool { return i == idx })
	n.peerArena.Free(idx)
	return nil
}

// Peers returns the number of registered peers.
func (n *UDPNetwork) Peers() int {
	n.peerMu.RLock()
	defer n.peerMu.RUnlock()
	return n.peerArena.Len()
}

// PeerTableStats reports the layout health of the peer structures: arena
// occupancy plus the open-addressed table stats for each index. Churn
// regression tests assert compaction returns these to baseline.
func (n *UDPNetwork) PeerTableStats() (arenaStats arena.Stats, byID, byAddr arena.TableStats) {
	n.peerMu.RLock()
	defer n.peerMu.RUnlock()
	return n.peerArena.Stats(), n.byID.Stats(), n.byAddr.Stats()
}

// peerAddr returns a peer's socket address by value.
func (n *UDPNetwork) peerAddr(id neko.ProcessID) (netip.AddrPort, bool) {
	n.peerMu.RLock()
	defer n.peerMu.RUnlock()
	if idx, ok := n.byID.Get(uint64(id)); ok {
		return n.peerArena.Get(idx).ap, true
	}
	return netip.AddrPort{}, false
}

// addrKey is a source address's byAddr key. An IPv4 endpoint (the common
// case) packs address and port losslessly into 48 bits; an IPv6 endpoint
// folds its 16 address bytes and port into a 64-bit digest. Digests may
// collide with each other or with a packed IPv4 key, so the table is
// lossy: lookups confirm the full address against the arena record, and a
// collision costs one more probe, never a misattribution.
func addrKey(ap netip.AddrPort) uint64 {
	a := ap.Addr()
	if a.Is4() {
		b := a.As4()
		return uint64(b[0])<<40 | uint64(b[1])<<32 | uint64(b[2])<<24 | uint64(b[3])<<16 |
			uint64(ap.Port())
	}
	b := a.As16()
	hi, lo := binary.BigEndian.Uint64(b[:8]), binary.BigEndian.Uint64(b[8:])
	return (hi*0x9e3779b97f4a7c15^lo)*0xbf58476d1ce4e5b9 ^ uint64(ap.Port())
}

// lookupAddrLocked resolves a source address (already Unmap()ed) to its
// peer record, or nil. Callers hold peerMu in at least read mode; the
// returned pointer is valid only until the lock is released.
func (n *UDPNetwork) lookupAddrLocked(ap netip.AddrPort) *peerState {
	var hit *peerState
	n.byAddr.Find(addrKey(ap), func(i arena.Index) bool {
		if ps := n.peerArena.Get(i); ps.ap == ap {
			hit = ps
			return true
		}
		return false
	})
	return hit
}

// Attach implements neko.Network for the configured local process.
func (n *UDPNetwork) Attach(id neko.ProcessID, r neko.Receiver) (neko.Sender, error) {
	if id != n.cfg.LocalID {
		return nil, fmt.Errorf("transport: endpoint is process %d, cannot attach %d", n.cfg.LocalID, id)
	}
	if r == nil {
		return nil, fmt.Errorf("transport: nil receiver")
	}
	if !n.attached.CompareAndSwap(false, true) {
		return nil, fmt.Errorf("transport: process %d attached twice", id)
	}
	box := &receiverBox{r: r}
	box.br, _ = r.(neko.BatchReceiver)
	n.receiver.Store(box)
	return udpSender{n: n}, nil
}

type udpSender struct{ n *UDPNetwork }

func (s udpSender) Send(m *neko.Message) { s.n.send(m) }

// handleTimeReq answers an NTP-style exchange: echo T1, add our receive
// (T2) and send (T3) wall-clock times. The reply goes to src, the address
// the request's batch already resolved to the peer m.From.
func (n *UDPNetwork) handleTimeReq(m *neko.Message, src netip.AddrPort) {
	req, err := decodeTimeSync(m.Payload)
	if err != nil {
		return
	}
	t2 := n.wallNano()
	_ = n.write(&neko.Message{ // a lost reply is counted; the requester's round times out
		From:    n.cfg.LocalID,
		To:      m.From,
		Type:    MsgTimeResp,
		Seq:     m.Seq,
		SentAt:  n.clk.Now(),
		Payload: encodeTimeSync(timeSyncPayload{T1: req.T1, T2: t2, T3: n.wallNano()}),
	}, src)
}

func (n *UDPNetwork) handleTimeResp(m *neko.Message) {
	p, err := decodeTimeSync(m.Payload)
	if err != nil {
		return
	}
	t4 := n.wallNano()
	n.mu.Lock()
	ch, ok := n.pending[m.Seq]
	if ok {
		delete(n.pending, m.Seq)
	}
	n.mu.Unlock()
	if !ok {
		return
	}
	ch <- clock.Sample{
		T1: time.Duration(p.T1),
		T2: time.Duration(p.T2),
		T3: time.Duration(p.T3),
		T4: time.Duration(t4),
	}
}

// SyncWith performs rounds of NTP-style exchanges with a peer and returns
// the peer-minus-local clock offset the minimum-delay filter estimates; the
// endpoint keeps nothing of it. Rounds that time out are skipped; at least
// one successful round is required.
func (n *UDPNetwork) SyncWith(peer neko.ProcessID, rounds int, timeout time.Duration) (time.Duration, error) {
	ap, ok := n.peerAddr(peer)
	if !ok {
		return 0, fmt.Errorf("transport: unknown peer %d", peer)
	}
	if rounds <= 0 {
		rounds = 8
	}
	if timeout <= 0 {
		timeout = time.Second
	}
	var samples []clock.Sample
	for i := 0; i < rounds; i++ {
		n.mu.Lock()
		seq := n.nextSync
		n.nextSync++
		ch := make(chan clock.Sample, 1)
		n.pending[seq] = ch
		n.mu.Unlock()

		req := &neko.Message{
			From:   n.cfg.LocalID,
			To:     peer,
			Type:   MsgTimeReq,
			Seq:    seq,
			SentAt: n.clk.Now(),
			Payload: encodeTimeSync(timeSyncPayload{
				T1: n.wallNano(),
			}),
		}
		if err := n.write(req, ap); err != nil {
			return 0, fmt.Errorf("transport: sync send: %w", err)
		}
		timedOut := make(chan struct{})
		tmr := n.clk.AfterFunc(timeout, func() { close(timedOut) })
		select {
		case s := <-ch:
			tmr.Stop()
			samples = append(samples, s)
		case <-timedOut:
			n.mu.Lock()
			delete(n.pending, seq)
			n.mu.Unlock()
		case <-n.closed:
			tmr.Stop()
			return 0, fmt.Errorf("transport: endpoint closed during sync")
		}
	}
	if len(samples) == 0 {
		return 0, fmt.Errorf("transport: no sync responses from peer %d", peer)
	}
	return clock.EstimateOffset(samples)
}

// Stats reports packets sent, valid packets received, and malformed packets
// discarded.
func (n *UDPNetwork) Stats() (sent, received, malformed uint64) {
	return n.sent.Load(), n.received.Load(), n.malformed.Load()
}

// SendErrors reports messages lost on the send path: unencodable
// messages, write errors and short writes.
func (n *UDPNetwork) SendErrors() uint64 { return n.sendErrors.Load() }

// Close shuts down the receive loop and releases the socket.
func (n *UDPNetwork) Close() error {
	select {
	case <-n.closed:
		return nil
	default:
	}
	close(n.closed)
	err := n.conn.Close()
	for _, c := range n.readers[1:] {
		_ = c.Close()
	}
	n.wg.Wait()
	return err
}
