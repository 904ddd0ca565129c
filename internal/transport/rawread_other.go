//go:build !linux

package transport

import (
	"net"

	"wanfd/internal/neko"
)

// drainLoop on platforms without the raw non-blocking recvmmsg path: one
// blocking read feeds a batch of one through the same processBatch, so
// pooling, stamping and delivery on the reader goroutine behave
// identically — only the per-wakeup batching is lost.
func (n *UDPNetwork) drainLoop(conn *net.UDPConn) {
	defer n.wg.Done()
	buf := make([]byte, maxPacketSize)
	batch := make([]pending, 0, 1)
	msgs := make([]*neko.Message, 0, 1)
	inflight := n.ingest.newStamp()
	for {
		nb, src, err := conn.ReadFromUDPAddrPort(buf)
		if err != nil {
			select {
			case <-n.closed:
				return
			default:
			}
			continue
		}
		m := n.ingest.msgs.Get()
		sentUnix, derr := DecodeInto(m, buf[:nb])
		if derr != nil {
			n.malformed.Add(1)
			n.mDecodeErr.Inc()
			n.ingest.msgs.Put(m)
			continue
		}
		batch = append(batch[:0], pending{m: m, sentUnix: sentUnix, src: unmapAP(src)})
		n.processBatch(batch, msgs, inflight)
	}
}
