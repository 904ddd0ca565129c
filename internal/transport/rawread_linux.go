//go:build linux

package transport

import (
	"net"
	"net/netip"
	"syscall"
	"unsafe"
)

// mmsghdr mirrors the kernel's struct mmsghdr: one msghdr plus the
// per-message byte count the kernel writes back. Go's natural padding
// matches the kernel layout on both 32- and 64-bit (the struct is padded
// to the msghdr alignment), so an array of these is a valid msgvec.
type mmsghdr struct {
	hdr syscall.Msghdr
	n   uint32
}

// mmsgReader holds the preallocated recvmmsg state for one drain
// goroutine: a buffer, iovec, sockaddr slot and mmsghdr per datagram of a
// drain batch. One recvmmsg call pulls a whole batch of queued datagrams,
// replacing the per-datagram recvfrom loop — same non-blocking semantics
// (MSG_DONTWAIT, EAGAIN surfaced to the caller), one syscall per batch
// instead of one per packet plus one to learn the queue is empty.
type mmsgReader struct {
	hdrs []mmsghdr
	iovs []syscall.Iovec
	sas  []syscall.RawSockaddrAny
	bufs [][]byte
}

func newMmsgReader(batch int) *mmsgReader {
	r := &mmsgReader{
		hdrs: make([]mmsghdr, batch),
		iovs: make([]syscall.Iovec, batch),
		sas:  make([]syscall.RawSockaddrAny, batch),
		bufs: make([][]byte, batch),
	}
	for i := range r.hdrs {
		r.bufs[i] = make([]byte, maxPacketSize)
		r.iovs[i].Base = &r.bufs[i][0]
		r.iovs[i].SetLen(maxPacketSize)
		h := &r.hdrs[i].hdr
		h.Name = (*byte)(unsafe.Pointer(&r.sas[i]))
		h.Iov = &r.iovs[i]
		h.Iovlen = 1
	}
	return r
}

// recv pulls up to max queued datagrams in one non-blocking recvmmsg call.
// Slot i's payload is bufs[i][:hdrs[i].n] and its source address comes
// from src(i); both are valid until the next recv.
func (r *mmsgReader) recv(fd int, max int) (int, syscall.Errno) {
	for i := 0; i < max; i++ {
		// The kernel writes the actual sockaddr length back into Namelen,
		// so it must be restored before every call.
		r.hdrs[i].hdr.Namelen = syscall.SizeofSockaddrAny
		r.hdrs[i].n = 0
	}
	nr, _, errno := syscall.Syscall6(syscall.SYS_RECVMMSG,
		uintptr(fd),
		uintptr(unsafe.Pointer(&r.hdrs[0])),
		uintptr(max),
		uintptr(syscall.MSG_DONTWAIT),
		0, 0)
	if errno != 0 {
		return 0, errno
	}
	return int(nr), 0
}

// src decodes slot i's source address. Addresses are returned Unmap()ed
// (v4-mapped-v6 normalized to v4) so they compare equal to the peer table
// keys; IPv6 zone/scope ids are deliberately dropped — link-local peers
// are out of scope for a WAN failure detector. An unknown family yields a
// zero address: the peer lookup will miss and the packet is counted and
// discarded, like any other unknown sender.
func (r *mmsgReader) src(i int) netip.AddrPort {
	rsa := &r.sas[i]
	switch rsa.Addr.Family {
	case syscall.AF_INET:
		sa := (*syscall.RawSockaddrInet4)(unsafe.Pointer(rsa))
		pb := (*[2]byte)(unsafe.Pointer(&sa.Port))
		port := uint16(pb[0])<<8 | uint16(pb[1])
		return netip.AddrPortFrom(netip.AddrFrom4(sa.Addr), port)
	case syscall.AF_INET6:
		sa := (*syscall.RawSockaddrInet6)(unsafe.Pointer(rsa))
		pb := (*[2]byte)(unsafe.Pointer(&sa.Port))
		port := uint16(pb[0])<<8 | uint16(pb[1])
		return netip.AddrPortFrom(netip.AddrFrom16(sa.Addr).Unmap(), port)
	}
	return netip.AddrPort{}
}

// newDrainLoop returns conn's reader, its buffers and batch allocated.
func (n *UDPNetwork) newDrainLoop(conn *net.UDPConn) func() {
	rr, b := newMmsgReader(maxDrainBatch), n.newBatch()
	return func() { n.drainLoop(conn, rr, b) }
}

// drainLoop is the batched reader: park in the netpoller until the socket
// is readable, then pull every queued datagram (up to maxDrainBatch) with
// non-blocking recvmmsg calls, decode each into the reader's own batch, and
// run the batch to completion through processBatch — stamped once,
// delivered to the receiver on this goroutine — before returning to the
// socket.
func (n *UDPNetwork) drainLoop(conn *net.UDPConn, rr *mmsgReader, b *rxBatch) {
	rc, err := conn.SyscallConn()
	if err != nil {
		return
	}
	var fatal error
	// One closure for the life of the loop: allocating it (and the escaping
	// fatal slot) per drain cycle would cost two heap objects per cycle.
	readFn := func(fd uintptr) bool {
		for b.n < maxDrainBatch {
			want := maxDrainBatch - b.n
			k, serr := rr.recv(int(fd), want)
			if serr == syscall.EAGAIN || serr == syscall.EWOULDBLOCK {
				break
			}
			if serr == syscall.EINTR {
				continue
			}
			if serr != 0 {
				fatal = serr
				break
			}
			for i := 0; i < k; i++ {
				n.decode(b, rr.bufs[i][:rr.hdrs[i].n], rr.src(i))
			}
			if k < want {
				// The kernel returned fewer than asked: queue drained.
				break
			}
		}
		// Returning false parks the goroutine until the next
		// readiness event; anything drained (or a fatal error)
		// must be surfaced first.
		return b.n > 0 || fatal != nil
	}
	for {
		fatal = nil
		err := rc.Read(readFn)
		select {
		case <-n.closed:
			return
		default:
		}
		if err != nil {
			// The raw conn is unusable (socket closed under us).
			return
		}
		// Transient datagram-level errors (fatal, e.g. ICMP-induced) are
		// survivable: deliver what was drained and keep serving.
		n.processBatch(b)
	}
}
