package transport

import (
	"errors"
	stdnet "net"
	"runtime"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"wanfd/internal/core"
	"wanfd/internal/layers"
	"wanfd/internal/neko"
)

func TestCodecRoundTrip(t *testing.T) {
	m := &neko.Message{
		From:    1,
		To:      2,
		Type:    neko.MsgHeartbeat,
		Seq:     42,
		Payload: []byte("hello"),
	}
	buf, err := Encode(nil, m, 123456789)
	if err != nil {
		t.Fatal(err)
	}
	got, sent, err := Decode(buf)
	if err != nil {
		t.Fatal(err)
	}
	if sent != 123456789 {
		t.Errorf("sent = %d", sent)
	}
	if got.From != 1 || got.To != 2 || got.Type != neko.MsgHeartbeat || got.Seq != 42 {
		t.Errorf("message = %+v", got)
	}
	if string(got.Payload) != "hello" {
		t.Errorf("payload = %q", got.Payload)
	}
}

func TestCodecErrors(t *testing.T) {
	if _, _, err := Decode([]byte("short")); !errors.Is(err, ErrTruncated) {
		t.Errorf("short packet: %v", err)
	}
	m := &neko.Message{From: 1, To: 2, Type: neko.MsgHeartbeat}
	buf, err := Encode(nil, m, 0)
	if err != nil {
		t.Fatal(err)
	}
	buf[0] = 'X'
	if _, _, err := Decode(buf); !errors.Is(err, ErrBadPacket) {
		t.Errorf("bad magic: %v", err)
	}
	big := &neko.Message{Payload: make([]byte, maxPayload+1)}
	if _, err := Encode(nil, big, 0); !errors.Is(err, ErrPayloadSize) {
		t.Errorf("oversized payload: %v", err)
	}
	// Truncated payload: header promises more bytes than present.
	m2 := &neko.Message{From: 1, To: 2, Payload: []byte("abcdef")}
	buf2, err := Encode(nil, m2, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := Decode(buf2[:len(buf2)-3]); !errors.Is(err, ErrTruncated) {
		t.Errorf("truncated payload: %v", err)
	}
}

func TestCodecRoundTripProperty(t *testing.T) {
	f := func(from, to int32, typ uint8, seq int64, sent int64, payload []byte) bool {
		if len(payload) > maxPayload {
			payload = payload[:maxPayload]
		}
		m := &neko.Message{
			From:    neko.ProcessID(from),
			To:      neko.ProcessID(to),
			Type:    neko.MessageType(typ),
			Seq:     seq,
			Payload: payload,
		}
		buf, err := Encode(nil, m, sent)
		if err != nil {
			return false
		}
		got, gotSent, err := Decode(buf)
		if err != nil || gotSent != sent {
			return false
		}
		if got.From != m.From || got.To != m.To || got.Type != m.Type || got.Seq != m.Seq {
			return false
		}
		if len(got.Payload) != len(payload) {
			return false
		}
		for i := range payload {
			if got.Payload[i] != payload[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestTimeSyncPayloadRoundTrip(t *testing.T) {
	p := timeSyncPayload{T1: 1, T2: -2, T3: 1 << 60}
	got, err := decodeTimeSync(encodeTimeSync(p))
	if err != nil {
		t.Fatal(err)
	}
	if got != p {
		t.Errorf("got %+v, want %+v", got, p)
	}
	if _, err := decodeTimeSync([]byte{1, 2}); err == nil {
		t.Error("short payload should fail")
	}
}

func TestUDPConfigValidation(t *testing.T) {
	if _, err := NewUDPNetwork(UDPConfig{}); err == nil {
		t.Error("missing listen should be rejected")
	}
	if _, err := NewUDPNetwork(UDPConfig{Listen: "not-an-address::1"}); err == nil {
		t.Error("bad listen should be rejected")
	}
	if _, err := NewUDPNetwork(UDPConfig{
		Listen: "127.0.0.1:0",
		Peers:  map[neko.ProcessID]string{2: "::bad::"},
	}); err == nil {
		t.Error("bad peer should be rejected")
	}
}

func TestUDPAttachRules(t *testing.T) {
	n, err := NewUDPNetwork(UDPConfig{LocalID: 1, Listen: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	if _, err := n.Attach(2, recvFunc(func(*neko.Message) {})); err == nil {
		t.Error("attaching a foreign id should fail")
	}
	if _, err := n.Attach(1, nil); err == nil {
		t.Error("nil receiver should fail")
	}
	if _, err := n.Attach(1, recvFunc(func(*neko.Message) {})); err != nil {
		t.Fatal(err)
	}
	if _, err := n.Attach(1, recvFunc(func(*neko.Message) {})); err == nil {
		t.Error("double attach should fail")
	}
}

type recvFunc func(m *neko.Message)

func (f recvFunc) Receive(m *neko.Message) { f(m) }

// twoEndpoints wires two loopback endpoints pointed at each other.
func twoEndpoints(t *testing.T) (*UDPNetwork, *UDPNetwork) {
	t.Helper()
	a, err := NewUDPNetwork(UDPConfig{LocalID: 1, Listen: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { a.Close() })
	b, err := NewUDPNetwork(UDPConfig{
		LocalID: 2,
		Listen:  "127.0.0.1:0",
		Peers:   map[neko.ProcessID]string{1: a.LocalAddr().String()},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { b.Close() })
	// Point a at b now that b's port is known.
	if err := a.AddPeer(2, b.LocalAddr().String()); err != nil {
		t.Fatal(err)
	}
	return a, b
}

func TestUDPRuntimePeerTable(t *testing.T) {
	a, err := NewUDPNetwork(UDPConfig{LocalID: 1, Listen: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { a.Close() })
	b, err := NewUDPNetwork(UDPConfig{
		LocalID: 2,
		Listen:  "127.0.0.1:0",
		Peers:   map[neko.ProcessID]string{1: a.LocalAddr().String()},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { b.Close() })

	got := make(chan neko.ProcessID, 16)
	if _, err := a.Attach(1, recvFunc(func(m *neko.Message) { got <- m.From })); err != nil {
		t.Fatal(err)
	}
	sender, err := b.Attach(2, recvFunc(func(*neko.Message) {}))
	if err != nil {
		t.Fatal(err)
	}
	recv := func() neko.ProcessID {
		t.Helper()
		select {
		case id := <-got:
			return id
		case <-time.After(5 * time.Second):
			t.Fatal("message not delivered")
			return 0
		}
	}

	// dropped waits for the endpoint to count want datagrams from
	// unregistered sources; none of them may reach the receiver.
	dropped := func(want uint64) {
		t.Helper()
		for deadline := time.Now().Add(5 * time.Second); a.IngestStats().UnknownSource < want; time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("unknown-source count = %d, want %d", a.IngestStats().UnknownSource, want)
			}
		}
		select {
		case id := <-got:
			t.Fatalf("datagram from an unregistered source delivered as peer %d", id)
		default:
		}
	}

	// Unregistered source: the self-reported From field is only a claim;
	// the datagram is counted and discarded.
	sender.Send(&neko.Message{From: 42, To: 1, Type: neko.MsgHeartbeat, SentAt: b.Clock().Now()})
	dropped(1)

	// Registered at runtime: the source address is authoritative.
	if err := a.AddPeer(2, b.LocalAddr().String()); err != nil {
		t.Fatal(err)
	}
	if n := a.Peers(); n != 1 {
		t.Errorf("peers = %d, want 1", n)
	}
	sender.Send(&neko.Message{From: 42, To: 1, Type: neko.MsgHeartbeat, Seq: 1, SentAt: b.Clock().Now()})
	if id := recv(); id != 2 {
		t.Errorf("registered sender attributed as %d, want 2", id)
	}

	// Uniqueness rules.
	if err := a.AddPeer(2, "127.0.0.1:1"); err == nil {
		t.Error("duplicate id accepted")
	}
	if err := a.AddPeer(3, b.LocalAddr().String()); err == nil {
		t.Error("duplicate address accepted")
	}
	if err := a.AddPeer(4, "not::an::addr"); err == nil {
		t.Error("bad address accepted")
	}

	// After removal the address is a stranger's again.
	if err := a.RemovePeer(2); err != nil {
		t.Fatal(err)
	}
	if err := a.RemovePeer(2); err == nil {
		t.Error("removing an unknown peer should fail")
	}
	if n := a.Peers(); n != 0 {
		t.Errorf("peers = %d, want 0", n)
	}
	sender.Send(&neko.Message{From: 42, To: 1, Type: neko.MsgHeartbeat, Seq: 2, SentAt: b.Clock().Now()})
	dropped(2)
	if _, received, _ := a.Stats(); received != 1 {
		t.Errorf("received = %d, want only the registered sender's 1", received)
	}
}

func TestUDPMessageDelivery(t *testing.T) {
	a, b := twoEndpoints(t)

	var mu sync.Mutex
	var got []neko.Message
	done := make(chan struct{}, 1)
	_, err := b.Attach(2, recvFunc(func(m *neko.Message) {
		mu.Lock()
		got = append(got, *m)
		n := len(got)
		mu.Unlock()
		if n == 3 {
			done <- struct{}{}
		}
	}))
	if err != nil {
		t.Fatal(err)
	}
	sender, err := a.Attach(1, recvFunc(func(*neko.Message) {}))
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < 3; i++ {
		sender.Send(&neko.Message{
			From: 1, To: 2, Type: neko.MsgHeartbeat, Seq: i, SentAt: a.Clock().Now(),
		})
	}
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("messages not delivered over loopback")
	}
	mu.Lock()
	defer mu.Unlock()
	for i, m := range got {
		if m.Seq != int64(i) {
			t.Errorf("message %d seq %d", i, m.Seq)
		}
		// Loopback delay must be tiny and non-negative after epoch
		// mapping (same wall clock on both ends).
		delay := time.Duration(0)
		_ = delay
		if m.SentAt < -time.Second || m.SentAt > time.Minute {
			t.Errorf("implausible mapped SentAt %v", m.SentAt)
		}
	}
	// Both counters are published after the hand-off they count (flush on
	// a, delivery on b), so the receiver callback can run ahead of them.
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		if sent, _, _ := a.Stats(); sent == 3 {
			break
		} else if time.Now().After(deadline) {
			t.Fatalf("sent = %d, want 3", sent)
		}
	}
	waitReceived(t, b, 3)
	if _, received, _ := b.Stats(); received != 3 {
		t.Errorf("received = %d, want 3", received)
	}
}

func TestUDPSendToUnknownPeerDropped(t *testing.T) {
	a, _ := twoEndpoints(t)
	sender, err := a.Attach(1, recvFunc(func(*neko.Message) {}))
	if err != nil {
		t.Fatal(err)
	}
	sender.Send(&neko.Message{From: 1, To: 99})
	sent, _, _ := a.Stats()
	if sent != 0 {
		t.Errorf("sent = %d, want 0 for unknown peer", sent)
	}
}

func TestUDPMalformedPacketCounted(t *testing.T) {
	_, b := twoEndpoints(t)
	if _, err := b.Attach(2, recvFunc(func(*neko.Message) {})); err != nil {
		t.Fatal(err)
	}
	// Throw raw garbage at b's socket.
	conn, err := stdnet.Dial("udp", b.LocalAddr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write([]byte("garbage packet")); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if _, _, malformed := b.Stats(); malformed == 1 {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatal("malformed packet not counted")
}

// TestUDPTimeSync runs the clock-sync exchange with a peer registered by
// handle, and pins that an exchange for a registration that does not hold —
// a foreign handle, or a removed peer — sends nothing: each is dropped,
// counted and fails at once.
func TestUDPTimeSync(t *testing.T) {
	a, err := NewUDPNetwork(UDPConfig{LocalID: 1, Listen: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { a.Close() })
	b, err := NewUDPNetwork(UDPConfig{
		LocalID: 2,
		Listen:  "127.0.0.1:0",
		Peers:   map[neko.ProcessID]string{1: a.LocalAddr().String()},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { b.Close() })
	const handle = 7
	dst, err := a.AddPeerHandle(b.LocalAddr().String(), handle)
	if err != nil {
		t.Fatal(err)
	}
	// a and b share the same wall clock (same host), so the estimated
	// offset must be ≈ 0.
	off, err := a.SyncWith(dst, handle, 8, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if off < -50*time.Millisecond || off > 50*time.Millisecond {
		t.Errorf("loopback offset estimate %v, want ≈0", off)
	}
	sent, _, _ := a.Stats()
	if _, err := a.SyncWith(dst, handle+1, 1, time.Second); err == nil {
		t.Error("sync under a foreign handle should fail")
	}
	if !a.RemovePeerHandle(dst, handle) {
		t.Fatal("registration not found for removal")
	}
	if _, err := a.SyncWith(dst, handle, 1, time.Second); err == nil {
		t.Error("sync with a removed peer should fail")
	}
	if now, _, _ := a.Stats(); now != sent || a.dropped.Load() != 2 {
		t.Errorf("after two refused exchanges: %d more sent, %d dropped, want 0 and 2", now-sent, a.dropped.Load())
	}
}

func TestUDPCloseIdempotent(t *testing.T) {
	a, err := NewUDPNetwork(UDPConfig{LocalID: 1, Listen: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	if err := a.Close(); err != nil {
		t.Errorf("second close: %v", err)
	}
}

// TestEndpointWholeAtReturnFreedAtClose pins what a heap reading taken
// around an endpoint's life relies on: NewUDPNetwork returns with every
// reader's buffers and InFlight slot made (none waits for its goroutine's
// first run), and the first collection after Close frees the receiver,
// however far the readers are on their way out.
func TestEndpointWholeAtReturnFreedAtClose(t *testing.T) {
	for round := 0; round < 20; round++ {
		n, err := NewUDPNetwork(UDPConfig{LocalID: 1, Listen: "127.0.0.1:0", Readers: 2})
		if err != nil {
			t.Fatal(err)
		}
		slots := 0
		if s := n.ingest.stamps.Load(); s != nil {
			slots = len(*s)
		}
		if slots != len(n.readers) {
			n.Close()
			t.Fatalf("%d InFlight slots when NewUDPNetwork returned, want one per reader (%d)", slots, len(n.readers))
		}
		rcv, freed := &batchRecv{}, make(chan struct{})
		runtime.SetFinalizer(rcv, func(*batchRecv) { close(freed) })
		if _, err := n.Attach(1, rcv); err != nil {
			t.Fatal(err)
		}
		if err := n.Close(); err != nil {
			t.Fatal(err)
		}
		runtime.GC()
		select {
		case <-freed:
		case <-time.After(5 * time.Second):
			t.Fatalf("round %d: a closed endpoint's receiver outlived the first collection after Close", round)
		}
	}
}

// End-to-end over real sockets: heartbeater on one endpoint, a detector on
// the other; stopping the heartbeater triggers suspicion, restarting clears
// it. This is the paper's architecture on a real (loopback) network.
func TestUDPEndToEndDetection(t *testing.T) {
	a, b := twoEndpoints(t)

	const eta = 50 * time.Millisecond
	margin, err := core.NewConstantMargin("M", 30)
	if err != nil {
		t.Fatal(err)
	}
	det, err := core.NewDetector(core.DetectorConfig{
		Predictor: core.NewLast(),
		Margin:    margin,
		Eta:       eta,
		Clock:     b.Clock(),
	})
	if err != nil {
		t.Fatal(err)
	}
	mon, err := layers.NewMonitor(det)
	if err != nil {
		t.Fatal(err)
	}
	monProc, err := neko.NewProcess(2, b.Clock(), b, mon)
	if err != nil {
		t.Fatal(err)
	}
	hb, err := layers.NewHeartbeaterGroup(eta, 2)
	if err != nil {
		t.Fatal(err)
	}
	hbProc, err := neko.NewProcess(1, a.Clock(), a, hb)
	if err != nil {
		t.Fatal(err)
	}
	if err := monProc.Start(); err != nil {
		t.Fatal(err)
	}
	if err := hbProc.Start(); err != nil {
		t.Fatal(err)
	}
	// Let the stream establish.
	time.Sleep(20 * eta)
	if det.Suspected() {
		t.Fatal("suspected while heartbeats flowing")
	}
	// Crash the monitored process.
	hbProc.Stop()
	deadline := time.Now().Add(5 * time.Second)
	for !det.Suspected() && time.Now().Before(deadline) {
		time.Sleep(eta / 5)
	}
	if !det.Suspected() {
		t.Fatal("crash not detected over UDP")
	}
	monProc.Stop()
}
