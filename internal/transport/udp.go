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
	// ExpectedPeers, when non-zero, pre-sizes the address table for that
	// many registered peers, so reaching the expected population never
	// rehashes under load.
	ExpectedPeers int
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
	epochNano int64
	clk       *sim.RealClock

	// peerMu guards the peer tables, which are mutable at runtime (AddPeer/
	// RemovePeer) so a cluster monitor can change membership without
	// dropping the socket. The batched drain loop takes the read lock once
	// per batch, not once per packet.
	//
	// The endpoint keeps no per-peer record. byAddr, an open-addressed
	// table (see internal/arena), maps each registered source address (its
	// Addr) to the handle its datagrams are stamped with; an IPv4 source is
	// one probe that reads nothing else. byID maps the id of a peer
	// registered by id to its Addr, for Send by To, and v6 holds each IPv6
	// registration's full address by handle, which confirms a digest hit
	// and serves sends; neither holds a peer registered by handle over
	// IPv4.
	peerMu sync.RWMutex
	byAddr *arena.Map64
	byID   *arena.Map64
	v6     map[uint64]netip.AddrPort

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

	// stopped counts the running drain loops. It is an allocation of its
	// own, not a field by value, because a reader signals it on its way
	// out: what that goroutine still holds then must not be the endpoint,
	// or a closed endpoint and the receiver it delivered to would stay
	// reachable until the goroutine is gone.
	stopped *sync.WaitGroup
	closed  chan struct{}

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
		byAddr:    arena.NewMap64(hint),
		byID:      arena.NewMap64(len(cfg.Peers)),
		v6:        make(map[uint64]netip.AddrPort),
		epochNano: clk.Epoch().UnixNano(),
		clk:       clk,
		pending:   make(map[int64]chan clock.Sample),
		ingest:    &ingestState{},
		stopped:   new(sync.WaitGroup),
		closed:    make(chan struct{}),
	}
	for id, addr := range cfg.Peers {
		if err := n.AddPeer(id, addr); err != nil {
			conn.Close()
			return nil, err
		}
	}
	n.startIngest()
	return n, nil
}

// instrument is the endpoint's one registration site, run before any drain
// loop starts: a collector reads the packet counters at scrape time, so
// counting a packet is one atomic add, and the drain-batch histogram, the
// one live handle, keeps its place among them.
func (n *UDPNetwork) instrument(r *telemetry.Registry) {
	descs := [...]telemetry.Desc{
		{Name: telemetry.MetricPacketsSent, Help: "UDP packets sent.", Type: telemetry.TypeCounter},
		{Name: telemetry.MetricPacketsReceived, Help: "Valid UDP packets received.", Type: telemetry.TypeCounter},
		{Name: telemetry.MetricDecodeErrors, Help: "Malformed inbound packets discarded.", Type: telemetry.TypeCounter},
		{Name: telemetry.MetricPacketsDropped, Help: "Packets discarded without delivery.", Type: telemetry.TypeCounter},
		{Name: telemetry.MetricSendErrors, Help: "Messages lost to encode or socket write failures.", Type: telemetry.TypeCounter},
		{Name: telemetry.MetricEgressSendErrors, Help: "datagrams the socket refused (write errors and short writes)", Type: telemetry.TypeCounter},
		{Name: telemetry.MetricIngestBatchSize, Help: "datagrams drained per readiness wakeup", Type: telemetry.TypeHistogram},
		{Name: telemetry.MetricIngestDrains, Help: "completed ingest drain cycles", Type: telemetry.TypeCounter},
		{Name: telemetry.MetricIngestUnknownSource, Help: "datagrams discarded because their source address is not a registered peer", Type: telemetry.TypeCounter},
		{Name: telemetry.MetricIngestKernelDrops, Help: "datagrams the kernel dropped on full reader socket buffers", Type: telemetry.TypeCounter},
	}
	r.Collect(func(s *telemetry.Scrape) {
		unknown := n.ingest.unknownSrc.Load()
		s.Counter(0, n.sent.Load())
		s.Counter(1, n.received.Load())
		s.Counter(2, n.malformed.Load())
		s.Counter(3, n.dropped.Load()+unknown)
		s.Counter(4, n.sendErrors.Load())
		s.Counter(5, n.writeErrors.Load())
		// 6 is the drain-batch histogram.
		s.Counter(7, n.ingest.drains.Load())
		s.Counter(8, unknown)
		s.Counter(9, n.kernelDrops())
	}, descs[:]...)
	batch := &descs[6]
	n.ingest.batchHist = r.Histogram(batch.Name, batch.Help, []float64{1, 2, 4, 8, 16, 32, 64})
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

// Addr is a registered peer's address in one word: the key of the
// endpoint's address table, which a receiver keeps in its own per-peer
// record to send to the peer and to remove it. IPv4 packs address and port
// losslessly into the low 48 bits; IPv6 is a 64-bit digest of address and
// port with v6Tag set, so it never equals an IPv4 key. Port 0 is refused,
// so the zero Addr names no peer.
type Addr uint64

// v6Tag marks an IPv6 Addr. Digests may collide with each other, so an
// IPv6 lookup confirms the full address in the v6 side table.
const v6Tag Addr = 1 << 63

// addrKey is a source address's Addr.
func addrKey(ap netip.AddrPort) Addr {
	a := ap.Addr()
	if a.Is4() {
		b := a.As4()
		return Addr(b[0])<<40 | Addr(b[1])<<32 | Addr(b[2])<<24 | Addr(b[3])<<16 | Addr(ap.Port())
	}
	b := a.As16()
	hi, lo := binary.BigEndian.Uint64(b[:8]), binary.BigEndian.Uint64(b[8:])
	return Addr((hi*0x9e3779b97f4a7c15^lo)*0xbf58476d1ce4e5b9^uint64(ap.Port())) | v6Tag
}

// AddPeer registers a peer id and address at runtime: AddPeerHandle with
// the id as the handle, so messages from addr are delivered with From (and
// Handle) set to id, and Send by To reaches addr. The id and the address
// must both be new: addresses identify senders, so two ids sharing one
// address would be indistinguishable on receive.
func (n *UDPNetwork) AddPeer(id neko.ProcessID, addr string) error {
	_, err := n.register(addr, uint64(id), true)
	return err
}

// AddPeerHandle registers addr for a receiver with per-peer state of its
// own: every message from addr is delivered with Message.Handle set to
// handle (and From to its bits), so the address lookup is the receive
// path's only lookup, and that table entry is all the endpoint keeps of the
// peer. It returns the peer's Addr, which SendTo, SyncWith and
// RemovePeerHandle take. Handles share one space with the ids of peers
// registered by id, and an IPv6 peer's must be unique among the endpoint's
// IPv6 registrations.
func (n *UDPNetwork) AddPeerHandle(addr string, handle uint64) (Addr, error) {
	return n.register(addr, handle, false)
}

// register enters addr into the address table under handle h, into the v6
// side table for IPv6, and with byID into the id table as peer h.
func (n *UDPNetwork) register(addr string, h uint64, byID bool) (Addr, error) {
	ap, err := resolveAddrPort(addr)
	if err != nil {
		peer := fmt.Sprintf("%q", addr)
		if byID {
			peer = fmt.Sprintf("%d %q", neko.ProcessID(h), addr)
		}
		return 0, fmt.Errorf("transport: resolve peer %s: %w", peer, err)
	}
	n.peerMu.Lock()
	defer n.peerMu.Unlock()
	if _, dup := n.byID.Get(h); dup && byID {
		return 0, fmt.Errorf("transport: peer %d already registered", neko.ProcessID(h))
	}
	if _, dup := n.lookupLocked(ap); dup || ap.Port() == 0 {
		return 0, fmt.Errorf("transport: address %s has no port or is already registered", ap)
	}
	a := addrKey(ap)
	if a&v6Tag != 0 {
		if _, dup := n.v6[h]; dup {
			return 0, fmt.Errorf("transport: handle %#x already registered", h)
		}
		n.v6[h] = ap
	}
	n.byAddr.Put(uint64(a), arena.Index(h))
	if byID {
		n.byID.Put(h, arena.Index(a))
	}
	return a, nil
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

// RemovePeer deletes a peer registered by id. Packets from its address are
// no longer attributed to the id.
func (n *UDPNetwork) RemovePeer(id neko.ProcessID) error {
	n.peerMu.Lock()
	defer n.peerMu.Unlock()
	if a, ok := n.byID.Delete(uint64(id)); ok && n.unregisterLocked(Addr(a), uint64(id)) {
		return nil
	}
	return fmt.Errorf("transport: unknown peer %d", id)
}

// RemovePeerHandle ends the registration AddPeerHandle made of a under
// handle h, and reports whether there was one: packets from the address
// are no longer delivered, and SendTo and SyncWith no longer reach it.
func (n *UDPNetwork) RemovePeerHandle(a Addr, h uint64) bool {
	n.peerMu.Lock()
	defer n.peerMu.Unlock()
	return n.unregisterLocked(a, h)
}

// unregisterLocked removes a's table entry of handle h. Callers hold
// peerMu.
func (n *UDPNetwork) unregisterLocked(a Addr, h uint64) bool {
	_, ok := n.byAddr.Remove(uint64(a), func(i arena.Index) bool { return uint64(i) == h })
	if ok && a&v6Tag != 0 {
		delete(n.v6, h)
	}
	return ok
}

// Peers returns the number of registered peers.
func (n *UDPNetwork) Peers() int {
	n.peerMu.RLock()
	defer n.peerMu.RUnlock()
	return n.byAddr.Len()
}

// PeerTableStats reports the layout health of the address table and of the
// id table. Churn regression tests assert compaction returns these to
// baseline.
func (n *UDPNetwork) PeerTableStats() (byAddr, byID arena.TableStats) {
	n.peerMu.RLock()
	defer n.peerMu.RUnlock()
	return n.byAddr.Stats(), n.byID.Stats()
}

// lookupLocked resolves a source address (already Unmap()ed) to the handle
// it was registered with: for IPv4 one probe that reads nothing else, for
// IPv6 each digest hit confirmed against the full address. Callers hold
// peerMu in at least read mode.
func (n *UDPNetwork) lookupLocked(ap netip.AddrPort) (uint64, bool) {
	a := addrKey(ap)
	if a&v6Tag == 0 {
		h, ok := n.byAddr.Get(uint64(a))
		return uint64(h), ok
	}
	h, ok := n.byAddr.Find(uint64(a), func(i arena.Index) bool { return n.v6[uint64(i)] == ap })
	return uint64(h), ok
}

// dest returns the socket address of the peer registered at a under handle
// h — with byID, of the peer registered by id h, whose Addr the id table
// holds — or false when there is none: a stale or foreign (a, h) never
// resolves to whoever holds the address now.
func (n *UDPNetwork) dest(a Addr, h uint64, byID bool) (netip.AddrPort, bool) {
	n.peerMu.RLock()
	defer n.peerMu.RUnlock()
	if byID {
		i, _ := n.byID.Get(h)
		a = Addr(i)
	}
	if a&v6Tag != 0 {
		ap, ok := n.v6[h]
		return ap, ok && addrKey(ap) == a
	}
	got, ok := n.byAddr.Get(uint64(a))
	ip := [4]byte{byte(a >> 40), byte(a >> 32), byte(a >> 24), byte(a >> 16)}
	return netip.AddrPortFrom(netip.AddrFrom4(ip), uint16(a)), ok && uint64(got) == h
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

// SyncWith performs rounds of NTP-style exchanges with the peer
// AddPeerHandle registered at a under handle and returns the
// peer-minus-local clock offset the minimum-delay filter estimates; the
// endpoint keeps nothing of it. An exchange with a peer not registered so
// sends nothing: it is counted dropped and fails. Rounds that time out are
// skipped; at least one successful round is required.
func (n *UDPNetwork) SyncWith(a Addr, handle uint64, rounds int, timeout time.Duration) (time.Duration, error) {
	ap, ok := n.dest(a, handle, false)
	if !ok {
		n.dropped.Add(1)
		return 0, fmt.Errorf("transport: no peer registered at %#x with handle %#x", uint64(a), handle)
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
		return 0, fmt.Errorf("transport: no sync responses from %s", ap)
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
	n.stopped.Wait()
	return err
}
