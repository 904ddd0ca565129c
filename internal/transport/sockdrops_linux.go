//go:build linux && !386

package transport

import (
	"net"
	"syscall"
	"unsafe"
)

// SO_MEMINFO and the index of the drop counter in the uint32 array it
// returns (linux/sock_diag.h); the syscall package exports neither.
const (
	soMeminfo      = 0x37
	skMeminfoDrops = 8
	skMeminfoVars  = 9
)

// socketDrops returns the number of datagrams the kernel has discarded on
// this socket because its receive buffer was full (sk_drops), or 0 if the
// socket cannot be queried (closed, or a kernel older than 4.12).
func socketDrops(conn *net.UDPConn) uint64 {
	rc, err := conn.SyscallConn()
	if err != nil {
		return 0
	}
	var info [skMeminfoVars]uint32
	size := uint32(unsafe.Sizeof(info))
	var errno syscall.Errno
	if err := rc.Control(func(fd uintptr) {
		_, _, errno = syscall.Syscall6(syscall.SYS_GETSOCKOPT, fd,
			syscall.SOL_SOCKET, soMeminfo,
			uintptr(unsafe.Pointer(&info)), uintptr(unsafe.Pointer(&size)), 0)
	}); err != nil || errno != 0 {
		return 0
	}
	return uint64(info[skMeminfoDrops])
}
