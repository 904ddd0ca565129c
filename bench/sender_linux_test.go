//go:build linux

package main

import (
	"net"
	"net/netip"
	"testing"
	"time"
)

// TestSourceSelection sends three datagrams from one socket, each naming
// its own 127.x.y.z source, and checks the receiver sees those sources.
func TestSourceSelection(t *testing.T) {
	rcv, err := net.ListenUDP("udp4", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	defer rcv.Close()
	snd, err := newSender()
	if err != nil {
		t.Fatal(err)
	}
	defer snd.close()
	snd.dst = rcv.LocalAddr().(*net.UDPAddr).AddrPort()
	if err := rcv.SetReadDeadline(time.Now().Add(5 * time.Second)); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 16)
	for _, i := range []int{0, 0x1ff, 0xffff} {
		src := peerSource(i)
		if err := snd.send([]byte{byte(i)}, src); err != nil {
			t.Fatalf("send from %v: %v", src, err)
		}
		n, from, err := rcv.ReadFromUDPAddrPort(buf)
		if err != nil {
			t.Fatal(err)
		}
		want := netip.AddrPortFrom(netip.AddrFrom4(src), snd.port())
		if n != 1 || buf[0] != byte(i) || from != want {
			t.Errorf("peer %#x: got %d bytes from %v, want 1 from %v", i, n, from, want)
		}
	}
	// The control message is one IP_PKTINFO header plus in_pktinfo, with
	// the source in ipi_spec_dst (bytes 4..8 of the payload).
	oob := newPktinfo()
	setSource(oob, [4]byte{127, 9, 8, 7})
	if len(oob) != 32 || oob[20] != 127 || oob[21] != 9 || oob[22] != 8 || oob[23] != 7 {
		t.Errorf("control message = %v", oob)
	}
}
