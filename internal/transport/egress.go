package transport

import (
	"fmt"
	"net/netip"

	"wanfd/internal/neko"
)

// EgressStats is a snapshot of the send path's counters.
type EgressStats struct {
	// Flushes is the number of successful socket writes. Every write
	// carries one datagram, so it always equals Packets.
	Flushes uint64
	// Packets is the number of datagrams handed to the kernel.
	Packets uint64
	// RingDrops is always 0: Send writes the datagram itself, so there is
	// no queue to overflow.
	RingDrops uint64
	// SendErrors counts datagrams the socket refused: write errors and
	// short writes (unencodable messages are only in UDPNetwork.SendErrors).
	SendErrors uint64
}

// EgressStats returns the send path counters.
func (n *UDPNetwork) EgressStats() EgressStats {
	sent := n.sent.Load()
	return EgressStats{Flushes: sent, Packets: sent, SendErrors: n.writeErrors.Load()}
}

// send is the send path, run to completion on the caller's goroutine:
// resolve the destination registered by id m.To, encode, write, count. A
// message for an unregistered peer is dropped (counted), not an error. The
// peer-table lock is released before the write
// (internal/analysis.MutexHold).
func (n *UDPNetwork) send(m *neko.Message) { n.sendTo(m, 0, uint64(m.To), true) }

// SendTo is Send for a peer AddPeerHandle registered: m goes to the peer
// registered at a under handle h, the address the receiver keeps in its own
// record. A message whose (a, h) names no current registration — a removed
// peer's stale handle — is dropped and counted.
func (n *UDPNetwork) SendTo(m *neko.Message, a Addr, h uint64) { n.sendTo(m, a, h, false) }

func (n *UDPNetwork) sendTo(m *neko.Message, a Addr, h uint64, byID bool) {
	ap, ok := n.dest(a, h, byID)
	if !ok {
		n.dropped.Add(1)
		return
	}
	_ = n.write(m, ap) // counted in SendErrors; Send has no error to return
}

// write encodes m into a buffer on the caller's stack, stamped with the
// wall-clock form of m.SentAt, and hands it to the kernel in one datagram.
// It is the endpoint's only socket write. A UDP write parks only while the
// socket's send buffer is full (DESIGN.md §11).
func (n *UDPNetwork) write(m *neko.Message, to netip.AddrPort) error {
	var buf [maxPacketSize]byte
	pkt, err := Encode(buf[:0], m, n.epochNano+int64(m.SentAt))
	if err == nil {
		var nw int
		nw, err = n.conn.WriteToUDPAddrPort(pkt, to)
		if err == nil && nw < len(pkt) {
			err = fmt.Errorf("transport: short write: %d of %d bytes", nw, len(pkt))
		}
		if err != nil {
			n.writeErrors.Add(1)
		}
	}
	if err != nil {
		n.sendErrors.Add(1)
		return err
	}
	n.sent.Add(1)
	return nil
}
