//go:build !linux || 386

package transport

import "net"

// socketDrops reports nothing: the receive-buffer drop counter is read
// through a linux socket option, and linux/386 has no direct getsockopt
// system call number in the syscall package.
func socketDrops(*net.UDPConn) uint64 { return 0 }
