//go:build linux

package transport

import (
	"context"
	"fmt"
	"net"
	"syscall"
)

// soReusePort is SO_REUSEPORT on Linux; the syscall package predates the
// option and does not export it (and x/sys is off-limits — stdlib only).
const soReusePort = 0xf

// listenUDP opens a UDP socket with SO_REUSEPORT set, so additional reader
// sockets can bind the same address and the kernel load-balances datagrams
// across them.
func listenUDP(addr string) (*net.UDPConn, error) {
	lc := net.ListenConfig{
		Control: func(network, address string, c syscall.RawConn) error {
			var serr error
			if err := c.Control(func(fd uintptr) {
				serr = syscall.SetsockoptInt(int(fd), syscall.SOL_SOCKET, soReusePort, 1)
			}); err != nil {
				return err
			}
			return serr
		},
	}
	pc, err := lc.ListenPacket(context.Background(), "udp", addr)
	if err != nil {
		return nil, err
	}
	conn, ok := pc.(*net.UDPConn)
	if !ok {
		pc.Close()
		return nil, fmt.Errorf("transport: ListenPacket returned %T, want *net.UDPConn", pc)
	}
	return conn, nil
}

// maxReaders returns the number of drain loops to run: SO_REUSEPORT makes
// any requested count viable on Linux.
func maxReaders(want int) int {
	if want < 1 {
		return 1
	}
	return want
}
