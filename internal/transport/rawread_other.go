//go:build !linux

package transport

import "net"

// drainLoop on platforms without the raw non-blocking recvmmsg path: one
// blocking read feeds a batch of one through the same processBatch, so
// decoding, stamping and delivery on the reader goroutine behave
// identically — only the per-wakeup batching is lost.
func (n *UDPNetwork) drainLoop(conn *net.UDPConn) {
	defer n.wg.Done()
	buf := make([]byte, maxPacketSize)
	b := n.newBatch()
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
