//go:build !linux

package transport

import "net"

// newDrainLoop returns conn's reader, its buffer and batch allocated.
func (n *UDPNetwork) newDrainLoop(conn *net.UDPConn) func() {
	buf, b := make([]byte, maxPacketSize), n.newBatch()
	return func() { n.drainLoop(conn, buf, b) }
}

// drainLoop on platforms without the raw non-blocking recvmmsg path: one
// blocking read feeds a batch of one through the same processBatch, so
// decoding, stamping and delivery on the reader goroutine behave
// identically — only the per-wakeup batching is lost.
func (n *UDPNetwork) drainLoop(conn *net.UDPConn, buf []byte, b *rxBatch) {
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
		n.decode(b, buf[:nb], unmapAP(src))
		n.processBatch(b)
	}
}
