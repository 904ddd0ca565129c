package transport

import (
	stdnet "net"
	"net/netip"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"wanfd/internal/neko"
)

// TestUnknownSourceNeverDelivered pins the attribution rule: the wire's
// From is a claim, so a heartbeat, a time-sync request and a time-sync
// response from an address that is not a registered peer are counted and
// discarded — never delivered or answered under the id they carry, even
// when that id belongs to a registered peer.
func TestUnknownSourceNeverDelivered(t *testing.T) {
	n, err := NewUDPNetwork(UDPConfig{
		LocalID: 1,
		Listen:  "127.0.0.1:0",
		Peers:   map[neko.ProcessID]string{2: "127.0.0.9:4000"},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { n.Close() })
	rcv := &batchRecv{}
	if _, err := n.Attach(1, rcv); err != nil {
		t.Fatal(err)
	}
	stranger := netip.MustParseAddrPort("127.0.0.7:4000")
	sentUnix := n.WallTime().UnixNano()
	var pkts [][]byte
	for _, typ := range []neko.MessageType{neko.MsgHeartbeat, MsgTimeReq, MsgTimeResp} {
		buf, err := Encode(nil, &neko.Message{
			From: 2, To: 1, Type: typ, Seq: 1,
			Payload: encodeTimeSync(timeSyncPayload{T1: sentUnix}),
		}, sentUnix)
		if err != nil {
			t.Fatal(err)
		}
		pkts = append(pkts, buf)
	}
	srcs := []netip.AddrPort{stranger, stranger, stranger}
	n.NewInjector().InjectBatch(pkts, srcs)

	if got := rcv.count(); got != 0 {
		t.Errorf("%d datagrams from an unregistered address delivered, want 0", got)
	}
	if st := n.IngestStats(); st.UnknownSource != 3 {
		t.Errorf("UnknownSource = %d, want 3", st.UnknownSource)
	}
	if sent, received, _ := n.Stats(); sent != 0 || received != 0 {
		t.Errorf("sent = %d, received = %d, want 0/0", sent, received)
	}
}

// drainLoops counts the goroutines currently inside a socket drain loop.
func drainLoops() int {
	buf := make([]byte, 1<<20)
	buf = buf[:runtime.Stack(buf, true)]
	return strings.Count(string(buf), ".drainLoop(")
}

// settles polls get until it returns want or a second has passed, and
// returns the last value: goroutines take a moment to enter their function
// after `go` and to leave the count after their last statement.
func settles(get func() int, want int) int {
	deadline := time.Now().Add(time.Second)
	for get() != want && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	return get()
}

// TestReceiveGoroutineBudget pins what an endpoint costs in goroutines: one
// drain loop per reader socket and nothing else — sends run on the caller —
// and all of them gone once Close returns.
func TestReceiveGoroutineBudget(t *testing.T) {
	// Goroutines of endpoints that earlier tests closed may still be on
	// their way out; take the baseline once the count has stopped falling.
	for n := runtime.NumGoroutine(); ; n = runtime.NumGoroutine() {
		time.Sleep(10 * time.Millisecond)
		if runtime.NumGoroutine() >= n {
			break
		}
	}
	for _, readers := range []int{0, 3} {
		want := maxReaders(readers)
		before, loopsBefore := runtime.NumGoroutine(), drainLoops()
		n, err := NewUDPNetwork(UDPConfig{LocalID: 1, Listen: "127.0.0.1:0", Readers: readers})
		if err != nil {
			t.Fatal(err)
		}
		if got := settles(drainLoops, loopsBefore+want) - loopsBefore; got != want {
			t.Errorf("Readers=%d: %d receive goroutines, want %d", readers, got, want)
		}
		if got := runtime.NumGoroutine() - before; got != want {
			t.Errorf("Readers=%d: endpoint started %d goroutines, want %d", readers, got, want)
		}
		if err := n.Close(); err != nil {
			t.Fatal(err)
		}
		if got := settles(runtime.NumGoroutine, before); got != before {
			t.Errorf("Readers=%d: %d goroutines after Close, %d before construction", readers, got, before)
		}
	}
}

// blastHeartbeats writes count heartbeats from conn to the endpoint as fast
// as the socket takes them.
func blastHeartbeats(t *testing.T, conn *stdnet.UDPConn, to *UDPNetwork, from neko.ProcessID, count int) {
	t.Helper()
	sentUnix := to.WallTime().UnixNano()
	dst := to.LocalAddr().AddrPort()
	for i := 0; i < count; i++ {
		pkt := encodePacket(t, from, to.cfg.LocalID, int64(i), sentUnix)
		if _, err := conn.WriteToUDPAddrPort(pkt, dst); err != nil {
			t.Fatal(err)
		}
	}
}

// TestKernelDropsCounted pins where overflow goes now that no ring sits
// between the socket and the receiver: a receiver that blocks the reader
// leaves datagrams queueing in the kernel's socket buffer, the buffer
// overflows, and every datagram is then either delivered or counted in
// KernelDrops — none vanish.
func TestKernelDropsCounted(t *testing.T) {
	if runtime.GOOS != "linux" || runtime.GOARCH == "386" {
		t.Skip("the socket drop counter is read through a linux-only option")
	}
	n, err := NewUDPNetwork(UDPConfig{LocalID: 1, Listen: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { n.Close() })
	conn, err := stdnet.ListenUDP("udp4", &stdnet.UDPAddr{IP: stdnet.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := n.AddPeer(2, conn.LocalAddr().String()); err != nil {
		t.Fatal(err)
	}
	entered, release := make(chan struct{}, 1), make(chan struct{})
	if _, err := n.Attach(1, recvFunc(func(*neko.Message) {
		select {
		case entered <- struct{}{}:
		default:
		}
		<-release
	})); err != nil {
		t.Fatal(err)
	}
	const total = 2000
	blastHeartbeats(t, conn, n, 2, 1)
	select {
	case <-entered: // the reader is now stuck in the receiver
	case <-time.After(5 * time.Second):
		t.Fatal("first heartbeat never delivered")
	}
	blastHeartbeats(t, conn, n, 2, total-1)
	close(release)
	var st IngestStats
	var received uint64
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		_, received, _ = n.Stats()
		st = n.IngestStats()
		if received+st.KernelDrops == total || time.Now().After(deadline) {
			break
		}
	}
	if received+st.KernelDrops != total {
		t.Errorf("received %d + kernel drops %d = %d, want %d", received, st.KernelDrops, received+st.KernelDrops, total)
	}
	if st.KernelDrops == 0 {
		t.Errorf("no kernel drops counted with the reader blocked across %d datagrams", total)
	}
}

// TestCloseUnderLoad closes the endpoint while a sender is still writing to
// its socket: Close must return promptly (it waits only for the batch in
// hand).
func TestCloseUnderLoad(t *testing.T) {
	n, err := NewUDPNetwork(UDPConfig{LocalID: 1, Listen: "127.0.0.1:0", Readers: 2})
	if err != nil {
		t.Fatal(err)
	}
	conn, err := stdnet.ListenUDP("udp4", &stdnet.UDPAddr{IP: stdnet.IPv4(127, 0, 0, 1)})
	if err != nil {
		n.Close()
		t.Fatal(err)
	}
	defer conn.Close()
	if err := n.AddPeer(2, conn.LocalAddr().String()); err != nil {
		t.Fatal(err)
	}
	var delivered atomic.Int64
	if _, err := n.Attach(1, recvFunc(func(*neko.Message) { delivered.Add(1) })); err != nil {
		t.Fatal(err)
	}
	pkt := encodePacket(t, 2, 1, 1, n.WallTime().UnixNano())
	dst := n.LocalAddr().AddrPort()
	stop, senderDone := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(senderDone)
		for {
			select {
			case <-stop:
				return
			default:
			}
			// Writes to the closed port fail with ECONNREFUSED once the
			// endpoint is gone; the sender just keeps going until told.
			_, _ = conn.WriteToUDPAddrPort(pkt, dst)
		}
	}()
	for deadline := time.Now().Add(5 * time.Second); delivered.Load() < 1000; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("only %d heartbeats delivered before the deadline", delivered.Load())
		}
	}
	closed := make(chan error, 1)
	go func() { closed <- n.Close() }()
	select {
	case err := <-closed:
		if err != nil {
			t.Errorf("Close: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Close did not return while the sender kept writing")
	}
	close(stop)
	<-senderDone
}
