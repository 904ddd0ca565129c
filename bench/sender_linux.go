//go:build linux

package main

import (
	"fmt"
	"net"
	"net/netip"
	"syscall"
	"unsafe"
)

// socketSupported reports whether this platform can run the socket
// workloads: they need a per-datagram source address (IP_PKTINFO) and a
// per-thread CPU reading (RUSAGE_THREAD).
const socketSupported = true

// pktinfoLen is sizeof(struct in_pktinfo): ifindex, spec_dst, addr.
const pktinfoLen = 12

// sender is the load generator's one UDP socket. It is bound to the
// wildcard address, so the kernel lets every datagram name its own source
// in 127.0.0.0/8 through an IP_PKTINFO control message; the monitor, which
// attributes heartbeats by source address, then sees one socket as any
// number of peers.
type sender struct {
	conn *net.UDPConn
	dst  netip.AddrPort
	oob  []byte
}

// newSender opens the generator socket. The caller sets dst, the monitor's
// address, once the monitor exists: the monitor must first be told the
// socket's port.
func newSender() (*sender, error) {
	conn, err := net.ListenUDP("udp4", &net.UDPAddr{IP: net.IPv4zero})
	if err != nil {
		return nil, fmt.Errorf("bench: open generator socket: %w", err)
	}
	return &sender{conn: conn, oob: newPktinfo()}, nil
}

// newPktinfo builds the control message once; setSource patches the four
// address bytes per datagram.
func newPktinfo() []byte {
	oob := make([]byte, syscall.CmsgSpace(pktinfoLen))
	h := (*syscall.Cmsghdr)(unsafe.Pointer(&oob[0]))
	h.Level = syscall.IPPROTO_IP
	h.Type = syscall.IP_PKTINFO
	h.SetLen(syscall.CmsgLen(pktinfoLen))
	return oob
}

// setSource writes src into the control message's ipi_spec_dst field, the
// address the kernel uses as the datagram's source.
func setSource(oob []byte, src [4]byte) {
	copy(oob[syscall.CmsgLen(0)+4:], src[:])
}

// port is the generator socket's local port: every simulated peer is
// registered with the monitor as 127.a.b.c:port.
func (s *sender) port() uint16 {
	return s.conn.LocalAddr().(*net.UDPAddr).AddrPort().Port()
}

// send writes one datagram that claims src as its source address.
func (s *sender) send(pkt []byte, src [4]byte) error {
	setSource(s.oob, src)
	_, _, err := s.conn.WriteMsgUDPAddrPort(pkt, s.oob, s.dst)
	return err
}

func (s *sender) close() { _ = s.conn.Close() }
