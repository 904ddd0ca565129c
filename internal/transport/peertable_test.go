package transport

import (
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"net/netip"
	"runtime"
	"strings"
	"testing"

	"wanfd/internal/neko"
)

// churnAddr returns a unique private IPv4 address for peer i.
func churnAddr(i int) string {
	return fmt.Sprintf("10.%d.%d.%d:7%03d", (i>>16)&0xff, (i>>8)&0xff, i&0xff, i%1000)
}

// attribute resolves a source address (already Unmap()ed) the way the
// drain path does per batch, to the handle it was registered with: through
// the address table under the peer-table read lock.
func (n *UDPNetwork) attribute(ap netip.AddrPort) (h uint64, ok bool) {
	n.peerMu.RLock()
	defer n.peerMu.RUnlock()
	return n.lookupLocked(ap)
}

// attributeAddr is attribute for peers registered by id: the id a datagram
// from ap is delivered as.
func (n *UDPNetwork) attributeAddr(ap netip.AddrPort) (id neko.ProcessID, ok bool) {
	h, ok := n.attribute(ap)
	return neko.ProcessID(h), ok
}

// TestPeerChurnCompaction drives repeated full add/remove cycles through
// the peer tables and asserts the layout returns to baseline each time: no
// entry left behind, tombstones compacted below the Cap/4 bound, probe
// lengths bounded, and table capacity stable across cycles rather than
// ratcheting upward.
func TestPeerChurnCompaction(t *testing.T) {
	n, err := NewUDPNetwork(UDPConfig{LocalID: 1, Listen: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()

	const (
		cycles = 6
		peers  = 4096
	)
	var capAfterFirst [2]int
	for c := 0; c < cycles; c++ {
		for i := 0; i < peers; i++ {
			if err := n.AddPeer(neko.ProcessID(100+i), churnAddr(i)); err != nil {
				t.Fatalf("cycle %d add peer %d: %v", c, i, err)
			}
		}
		if got := n.Peers(); got != peers {
			t.Fatalf("cycle %d: %d peers registered, want %d", c, got, peers)
		}
		byAddr, byID := n.PeerTableStats()
		if byID.MaxProbe > 64 {
			t.Fatalf("cycle %d: byID MaxProbe %d after refill, want bounded", c, byID.MaxProbe)
		}
		if byAddr.MaxProbe > 64 {
			t.Fatalf("cycle %d: byAddr MaxProbe %d after refill, want bounded", c, byAddr.MaxProbe)
		}
		for i := 0; i < peers; i++ {
			if err := n.RemovePeer(neko.ProcessID(100 + i)); err != nil {
				t.Fatalf("cycle %d remove peer %d: %v", c, i, err)
			}
		}
		byAddr, byID = n.PeerTableStats()
		if byID.Live != 0 || byAddr.Live != 0 {
			t.Fatalf("cycle %d: tables hold %d/%d live entries after full drain", c, byID.Live, byAddr.Live)
		}
		for name, st := range map[string]struct{ Tombstones, Cap int }{
			"byID":   {byID.Tombstones, byID.Cap},
			"byAddr": {byAddr.Tombstones, byAddr.Cap},
		} {
			if st.Tombstones*4 > st.Cap {
				t.Fatalf("cycle %d: %s carries %d tombstones at cap %d, want compacted below cap/4",
					c, name, st.Tombstones, st.Cap)
			}
		}
		if caps := [2]int{byID.Cap, byAddr.Cap}; c == 0 {
			capAfterFirst = caps
		} else if caps[0] > capAfterFirst[0] || caps[1] > capAfterFirst[1] {
			t.Fatalf("cycle %d: (byID, byAddr) caps grew %v -> %v across identical churn cycles",
				c, capAfterFirst, caps)
		}
	}
}

// collidingAddr6 returns an IPv6 endpoint in 2001:db8::/32, on the given
// port, whose addrKey digest before tagging is key: it solves addrKey's
// IPv6 arm for the low address half, multiplying by the inverse of the odd
// constant. Its Addr is key with v6Tag set.
func collidingAddr6(key uint64, port uint16) netip.AddrPort {
	const k1, k2 = 0x9e3779b97f4a7c15, 0xbf58476d1ce4e5b9
	inv := uint64(k2) // Newton's iteration doubles the correct low bits each step
	for i := 0; i < 6; i++ {
		inv *= 2 - k2*inv
	}
	hi := uint64(0x20010db8) << 32
	lo := (key^uint64(port))*inv ^ hi*k1
	var b [16]byte
	binary.BigEndian.PutUint64(b[:8], hi)
	binary.BigEndian.PutUint64(b[8:], lo)
	ap := netip.AddrPortFrom(netip.AddrFrom16(b), port)
	if addrKey(ap) != Addr(key)|v6Tag {
		panic("collidingAddr6 out of step with addrKey")
	}
	return ap
}

// TestIPv6LookupEquivalence proves the digest-keyed address table resolves
// exactly the peers a structural address comparison would: hits on the
// registered address+port, misses on swapped halves and foreign ports,
// same-address different-port peers told apart, and an IPv4 and an IPv6
// peer sharing the one table.
func TestIPv6LookupEquivalence(t *testing.T) {
	n, err := NewUDPNetwork(UDPConfig{LocalID: 1, Listen: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()

	peers := map[neko.ProcessID]string{
		2: "[2001:db8::1]:7001",
		3: "[2001:db8::2]:7001",
		// Same address as peer 2, different port.
		4: "[2001:db8::1]:7002",
		// Peer 3's two address halves swapped: must not alias.
		5: "[::2:2001:db8:0:0]:7001",
		// An IPv4 peer in the same table.
		6: "10.0.0.6:7001",
	}
	for id, addr := range peers {
		if err := n.AddPeer(id, addr); err != nil {
			t.Fatalf("add peer %d: %v", id, err)
		}
	}

	for id, addr := range peers {
		ap := netip.MustParseAddrPort(addr)
		got, ok := n.attributeAddr(ap)
		if !ok || got != id {
			t.Fatalf("attributeAddr(%s) = %d, %v, want %d", addr, got, ok, id)
		}
	}
	for _, miss := range []string{
		"[2001:db8::1]:7003", // registered address, unregistered port
		"[2001:db8::3]:7001", // unregistered address
		"[db8:2001::1]:7001", // first half permuted
		"10.0.0.6:7002",      // registered IPv4 address, unregistered port
	} {
		if id, ok := n.attributeAddr(netip.MustParseAddrPort(miss)); ok {
			t.Fatalf("attributeAddr(%s) resolved to peer %d, want miss", miss, id)
		}
	}

	// An IPv6 address whose digest equals peer 6's packed IPv4 key: the
	// tag keeps it off peer 6's key, so no IPv6 source resolves to an IPv4
	// peer, registered or not.
	v4 := netip.MustParseAddrPort(peers[6])
	forged := collidingAddr6(uint64(addrKey(v4)), 7001)
	if id, ok := n.attributeAddr(forged); ok {
		t.Fatalf("attributeAddr(%s), digest equal to peer 6's key, resolved to peer %d", forged, id)
	}
	if err := n.AddPeer(8, forged.String()); err != nil {
		t.Fatalf("add peer at %s: %v", forged, err)
	}
	// An IPv6 address whose digest equals peer 2's: the two share a key and
	// a probe chain, and only the full address tells them apart.
	twin := collidingAddr6(uint64(addrKey(netip.MustParseAddrPort(peers[2]))), 7009)
	if id, ok := n.attributeAddr(twin); ok {
		t.Fatalf("attributeAddr(%s), colliding with peer 2's key, resolved to peer %d", twin, id)
	}
	if err := n.AddPeer(9, twin.String()); err != nil {
		t.Fatalf("add peer at colliding %s: %v", twin, err)
	}
	for id, ap := range map[neko.ProcessID]netip.AddrPort{
		2: netip.MustParseAddrPort(peers[2]), 6: v4, 8: forged, 9: twin,
	} {
		if got, ok := n.attributeAddr(ap); !ok || got != id {
			t.Fatalf("attributeAddr(%s) = %d, %v with keys colliding, want %d", ap, got, ok, id)
		}
		if dst, ok := n.dest(0, uint64(id), true); !ok || dst != ap {
			t.Fatalf("peer %d sends to %s, %v, want %s", id, dst, ok, ap)
		}
	}
	for _, id := range []neko.ProcessID{8, 9} {
		if err := n.RemovePeer(id); err != nil {
			t.Fatal(err)
		}
	}
	if id, ok := n.attributeAddr(twin); ok {
		t.Fatalf("removed peer 9's address resolved to peer %d", id)
	}

	// Removing a peer leaves every other one reachable (its tombstone keeps
	// the probe chain walkable), across address families in both
	// directions.
	for _, c := range []struct {
		remove neko.ProcessID
		gone   string
		kept   map[neko.ProcessID]string
	}{
		{2, "[2001:db8::1]:7001", map[neko.ProcessID]string{4: "[2001:db8::1]:7002", 6: "10.0.0.6:7001"}},
		{6, "10.0.0.6:7001", map[neko.ProcessID]string{3: "[2001:db8::2]:7001", 4: "[2001:db8::1]:7002"}},
		{3, "[2001:db8::2]:7001", map[neko.ProcessID]string{4: "[2001:db8::1]:7002", 5: "[::2:2001:db8:0:0]:7001"}},
	} {
		if err := n.RemovePeer(c.remove); err != nil {
			t.Fatal(err)
		}
		if id, ok := n.attributeAddr(netip.MustParseAddrPort(c.gone)); ok {
			t.Fatalf("removed peer %d still attributed as %d", c.remove, id)
		}
		for id, addr := range c.kept {
			if got, ok := n.attributeAddr(netip.MustParseAddrPort(addr)); !ok || got != id {
				t.Fatalf("after removing peer %d, attributeAddr(%s) = %d, %v, want %d", c.remove, addr, got, ok, id)
			}
		}
	}
	// A freed address can be registered again, under either family.
	if err := n.AddPeer(7, "10.0.0.6:7001"); err != nil {
		t.Fatal(err)
	}
	if got, ok := n.attributeAddr(netip.MustParseAddrPort("10.0.0.6:7001")); !ok || got != 7 {
		t.Fatalf("re-registered v4 address resolves to %d, %v, want 7", got, ok)
	}
}

// TestIPv6ChurnCompaction is the IPv6 flavor of the churn regression: the
// address table must also compact tombstones and hold probe lengths
// bounded under full add/remove cycles of digest-keyed entries.
func TestIPv6ChurnCompaction(t *testing.T) {
	n, err := NewUDPNetwork(UDPConfig{LocalID: 1, Listen: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()

	const (
		cycles = 4
		peers  = 1024
	)
	for c := 0; c < cycles; c++ {
		for i := 0; i < peers; i++ {
			addr := fmt.Sprintf("[2001:db8:%x::%x]:7001", i>>8, i&0xff)
			if err := n.AddPeer(neko.ProcessID(100+i), addr); err != nil {
				t.Fatalf("cycle %d add peer %d: %v", c, i, err)
			}
		}
		for i := 0; i < peers; i++ {
			if err := n.RemovePeer(neko.ProcessID(100 + i)); err != nil {
				t.Fatalf("cycle %d remove peer %d: %v", c, i, err)
			}
		}
		byAddr, byID := n.PeerTableStats()
		if byID.Live != 0 || byAddr.Live != 0 || len(n.v6) != 0 {
			t.Fatalf("cycle %d: %d id / %d address / %d IPv6 entries live after drain", c, byID.Live, byAddr.Live, len(n.v6))
		}
		if byAddr.Tombstones*4 > byAddr.Cap {
			t.Fatalf("cycle %d: byAddr %d tombstones at cap %d, want compacted", c, byAddr.Tombstones, byAddr.Cap)
		}
		if byAddr.MaxProbe > 64 {
			t.Fatalf("cycle %d: byAddr MaxProbe %d, want bounded", c, byAddr.MaxProbe)
		}
	}
}

// TestResolveAddrPort pins the two ways a peer address is understood: a
// literal ip:port is parsed without the resolver, everything else still
// goes through it, and both arrive at the table key the receive path
// computes from a datagram's source (v4-mapped v6 unwrapped to v4, zone
// kept). A peer registered under either form is found under the other.
func TestResolveAddrPort(t *testing.T) {
	for _, c := range []struct {
		addr, want string // want "" where only the resolver knows
	}{
		{"10.1.2.3:7000", "10.1.2.3:7000"},
		{"[fe80::1%lo]:7001", "[fe80::1%lo]:7001"},
		{"[::ffff:10.1.2.3]:7000", "10.1.2.3:7000"},
		{"[2001:db8::5]:7002", "[2001:db8::5]:7002"},
		{"localhost:9000", ""},
		{":7003", ""},
	} {
		got, err := resolveAddrPort(c.addr)
		if err != nil {
			t.Errorf("resolveAddrPort(%q): %v", c.addr, err)
			continue
		}
		if c.want != "" && got.String() != c.want {
			t.Errorf("resolveAddrPort(%q) = %s, want %s", c.addr, got, c.want)
		}
		// The resolver's own answer, by way of AddrPort and unmap.
		a, err := net.ResolveUDPAddr("udp", c.addr)
		if err != nil {
			t.Fatalf("net.ResolveUDPAddr(%q): %v", c.addr, err)
		}
		if old := unmapAP(a.AddrPort()); old != got {
			t.Errorf("resolveAddrPort(%q) = %s, the resolver alone gives %s", c.addr, got, old)
		}
	}

	n, err := NewUDPNetwork(UDPConfig{LocalID: 1, Listen: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	if _, err := n.AddPeerHandle("[::ffff:10.1.2.3]:7000", 99); err != nil {
		t.Fatal(err)
	}
	if v, ok := n.attribute(netip.MustParseAddrPort("10.1.2.3:7000")); !ok || v != 99 {
		t.Errorf("v4-mapped registration not found under its v4 source: handle %d, ok %v", v, ok)
	}
	if err := n.AddPeer(8, "10.1.2.3:7000"); err == nil {
		t.Error("the same endpoint registered twice, once v4-mapped and once v4")
	}
	err = n.AddPeer(9, "not an address")
	if want := `transport: resolve peer 9 "not an address": `; err == nil || !strings.HasPrefix(err.Error(), want) {
		t.Errorf("malformed address: error %v, want prefix %q", err, want)
	}
	var addrErr *net.AddrError
	if !errors.As(err, &addrErr) {
		t.Errorf("malformed address: error %v does not wrap the resolver's *net.AddrError", err)
	}
}

// TestAddressTableHeapBudget pins what the endpoint keeps of a peer
// registered by handle: one entry of the address table (17 bytes a slot at
// its 3/4 load bound, 34 B a peer when pre-sized for a power of two), and no
// record of its own. The endpoint's fixed set-up (sockets, reader buffers)
// is spread over the 65,536 peers; a per-peer record or a second table
// entry costs 17 to 60 bytes more and fails here.
func TestAddressTableHeapBudget(t *testing.T) {
	const (
		peers  = 65536
		budget = 40
	)
	addrs := make([]string, peers)
	for i := range addrs {
		addrs[i] = churnAddr(i)
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	n, err := NewUDPNetwork(UDPConfig{LocalID: 1, Listen: "127.0.0.1:0", ExpectedPeers: peers})
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	for i, addr := range addrs {
		if _, err := n.AddPeerHandle(addr, uint64(i)+1); err != nil {
			t.Fatal(err)
		}
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(addrs)
	perPeer := (float64(after.HeapAlloc) - float64(before.HeapAlloc)) / peers
	t.Logf("%d peers: %.1f B/peer", peers, perPeer)
	if perPeer > budget {
		t.Errorf("%.1f heap bytes per peer registered by handle, budget %d", perPeer, budget)
	}
	if byAddr, byID := n.PeerTableStats(); byAddr.Live != peers || byID.Live != 0 || len(n.v6) != 0 {
		t.Errorf("address table holds %d entries, the id table %d and the IPv6 table %d, want %d, 0 and 0",
			byAddr.Live, byID.Live, len(n.v6), peers)
	}
}
