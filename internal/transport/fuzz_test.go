package transport

import (
	"net/netip"
	"testing"

	"wanfd/internal/arena"
	"wanfd/internal/neko"
)

// FuzzHeartbeatRoundTrip drives the codec with structured heartbeat
// fields rather than raw packets: every representable heartbeat must
// encode, decode back to identical fields, and carry its payload intact.
// The seed corpus is drawn from packets the real heartbeater produces
// (sequential seqs on the η grid, Unix-nano send stamps, empty payloads)
// plus the encoding-limit edges.
func FuzzHeartbeatRoundTrip(f *testing.F) {
	f.Add(int64(0), int64(1), int64(0), int64(1_700_000_000_000_000_000), []byte(nil))
	f.Add(int64(1), int64(2), int64(7), int64(42), []byte("x"))
	f.Add(int64(2), int64(1), int64(1<<40), int64(-1), make([]byte, maxPayload))
	f.Add(int64(-1), int64(-2), int64(-7), int64(0), []byte{0xff, 0x00})
	f.Fuzz(func(t *testing.T, from, to, seq, sent int64, payload []byte) {
		m := &neko.Message{
			From:    neko.ProcessID(from),
			To:      neko.ProcessID(to),
			Type:    neko.MsgHeartbeat,
			Seq:     seq,
			Payload: payload,
		}
		pkt, err := Encode(nil, m, sent)
		if err != nil {
			if len(payload) > maxPayload {
				return // oversized payloads must be rejected, not truncated
			}
			// The wire narrows ProcessID to int32; anything representable
			// must encode.
			if int64(int32(from)) == from && int64(int32(to)) == to {
				t.Fatalf("encode failed for representable heartbeat: %v", err)
			}
			return
		}
		back, sent2, err := Decode(pkt)
		if err != nil {
			t.Fatalf("decode of freshly encoded packet failed: %v", err)
		}
		if sent2 != sent {
			t.Fatalf("sentAt round trip: got %d, want %d", sent2, sent)
		}
		if int64(back.From) != int64(int32(from)) || int64(back.To) != int64(int32(to)) {
			t.Fatalf("ids round trip: got (%d,%d), want (%d,%d)", back.From, back.To, int32(from), int32(to))
		}
		if back.Type != neko.MsgHeartbeat || back.Seq != seq {
			t.Fatalf("header round trip: got type %d seq %d, want type %d seq %d",
				back.Type, back.Seq, neko.MsgHeartbeat, seq)
		}
		if len(back.Payload) != len(payload) {
			t.Fatalf("payload length: got %d, want %d", len(back.Payload), len(payload))
		}
		for i := range payload {
			if back.Payload[i] != payload[i] {
				t.Fatalf("payload byte %d: got %#x, want %#x", i, back.Payload[i], payload[i])
			}
		}
	})
}

// FuzzDecode ensures arbitrary packets never panic the decoder and that
// every successfully decoded message re-encodes to an equivalent packet.
func FuzzDecode(f *testing.F) {
	m := &neko.Message{From: 1, To: 2, Type: neko.MsgHeartbeat, Seq: 7, Payload: []byte("x")}
	seed, err := Encode(nil, m, 42)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seed)
	f.Add([]byte{})
	f.Add([]byte("WF\x01garbage_______________________"))
	f.Fuzz(func(t *testing.T, pkt []byte) {
		decoded, sent, err := Decode(pkt)
		if err != nil {
			return
		}
		re, err := Encode(nil, decoded, sent)
		if err != nil {
			t.Fatalf("re-encode of decoded message failed: %v", err)
		}
		back, sent2, err := Decode(re)
		if err != nil || sent2 != sent {
			t.Fatalf("re-decode failed: %v (sent %d vs %d)", err, sent2, sent)
		}
		if back.From != decoded.From || back.To != decoded.To ||
			back.Type != decoded.Type || back.Seq != decoded.Seq {
			t.Fatalf("round trip mismatch: %+v vs %+v", back, decoded)
		}
	})
}

// FuzzAddrAttribution registers and removes random sets of IPv4, IPv6 and
// v4-mapped peer addresses by handle, some IPv6 ones forged to share the
// digest of an earlier registration (IPv6 or IPv4), and checks after every
// step that each source address resolves to exactly its own registration's
// handle or to none, as a plain map of canonical addresses would: a
// v4-mapped form finds the IPv4 registration, no IPv6 source finds an IPv4
// peer, a refused duplicate leaves the first registration in place, a
// removal takes only its own entry, and every registration sends to its own
// address. Each step is four bytes: the operation, two address bytes, the
// port.
func FuzzAddrAttribution(f *testing.F) {
	f.Add([]byte{0, 1, 2, 0, 1, 1, 2, 0, 2, 1, 2, 0, 3, 0, 0, 1, 3, 2, 0, 0})
	f.Add([]byte{2, 0, 0, 0, 3, 0, 0, 1, 3, 0, 0, 2, 4, 1, 0, 0, 2, 0, 0, 3})
	f.Add([]byte{0, 3, 3, 3, 1, 3, 3, 3, 4, 0, 0, 0, 1, 3, 3, 3, 6, 0, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		n := &UDPNetwork{byAddr: arena.NewMap64(0), byID: arena.NewMap64(0), v6: map[uint64]netip.AddrPort{}}
		type reg struct {
			ap     netip.AddrPort
			a      Addr
			handle uint64
		}
		var regs []reg
		var probes []netip.AddrPort
		for step := uint64(1); len(data) >= 4 && step <= 64; step++ {
			op, x, y, port := data[0], data[1]%4, data[2]%4, 7000+uint16(data[3]%4)
			data = data[4:]
			var ap netip.AddrPort
			switch op % 8 {
			case 0:
				ap = netip.AddrPortFrom(netip.AddrFrom4([4]byte{10, 0, x, y}), port)
			case 1:
				ap = netip.AddrPortFrom(netip.AddrFrom16([16]byte{10: 0xff, 11: 0xff, 12: 10, 14: x, 15: y}), port)
			case 2:
				ap = netip.AddrPortFrom(netip.AddrFrom16([16]byte{0x20, 0x01, 0x0d, 0xb8, 14: x, 15: y}), port)
			case 3:
				if len(regs) == 0 {
					continue
				}
				ap = collidingAddr6(uint64(regs[int(x)%len(regs)].a)&^uint64(v6Tag), port)
			default:
				if len(regs) == 0 {
					continue
				}
				i := int(x) % len(regs)
				if !n.RemovePeerHandle(regs[i].a, regs[i].handle) {
					t.Fatalf("step %d: registration of %s not found for removal", step, regs[i].ap)
				}
				if n.RemovePeerHandle(regs[i].a, regs[i].handle) {
					t.Fatalf("step %d: %s removed twice", step, regs[i].ap)
				}
				regs = append(regs[:i], regs[i+1:]...)
			}
			if ap.IsValid() {
				probes = append(probes, ap)
				canon, dup := unmapAP(ap), false
				for _, r := range regs {
					dup = dup || r.ap == canon
				}
				a, err := n.AddPeerHandle(ap.String(), step)
				if dup != (err != nil) {
					t.Fatalf("step %d: registering %s (already registered: %v) returned %v", step, ap, dup, err)
				}
				if err == nil {
					regs = append(regs, reg{canon, a, step})
				}
			}
			for _, p := range probes {
				src := unmapAP(p)
				var want uint64
				for _, r := range regs {
					if r.ap == src {
						want = r.handle
					}
				}
				if got, ok := n.attribute(src); got != want || ok != (want != 0) {
					t.Fatalf("step %d: %s resolves to handle %d, %v, want %d", step, p, got, ok, want)
				}
			}
			for _, r := range regs {
				if dst, ok := n.dest(r.a, r.handle, false); !ok || dst != r.ap {
					t.Fatalf("step %d: handle %d sends to %s, %v, want %s", step, r.handle, dst, ok, r.ap)
				}
			}
		}
		if byAddr, _ := n.PeerTableStats(); byAddr.Live != len(regs) || n.Peers() != len(regs) {
			t.Fatalf("%d table entries for %d registrations", byAddr.Live, len(regs))
		}
	})
}
