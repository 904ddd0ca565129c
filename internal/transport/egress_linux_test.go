//go:build linux

package transport

import (
	"testing"

	"wanfd/internal/neko"
)

// TestEgressSyscallsSaved pins what sendmmsg batching actually buys: when
// a burst has queued up behind the flusher, the kernel must see fewer send
// syscalls than datagrams. Linux-only — the portable fallback is one
// write per datagram by construction.
func TestEgressSyscallsSaved(t *testing.T) {
	if sysSENDMMSG == 0 {
		t.Skip("no sendmmsg syscall number for this architecture")
	}
	a, b := batchedPair(t, UDPConfig{})
	if _, err := a.Attach(1, recvFunc(func(*neko.Message) {})); err != nil {
		t.Fatal(err)
	}
	sender, err := b.Attach(2, recvFunc(func(*neko.Message) {}))
	if err != nil {
		t.Fatal(err)
	}
	// Stall the flusher while the burst queues, so the flushes that follow
	// its release each carry a full batch (the stall's own packet is the
	// +1 below).
	release := stallFlusher(t, b, 1)
	const total = 128
	for i := int64(0); i < total; i++ {
		sender.Send(&neko.Message{From: 2, To: 1, Type: neko.MsgHeartbeat, Seq: i, SentAt: b.Clock().Now()})
	}
	release()
	st := waitEgress(t, b, "all packets flushed", func(st EgressStats) bool {
		return st.Packets+st.RingDrops+st.SendErrors >= total+1
	})
	if st.RingDrops != 0 || st.SendErrors != 0 {
		t.Fatalf("drops=%d errors=%d at this load, want 0", st.RingDrops, st.SendErrors)
	}
	if st.SyscallsSaved == 0 {
		t.Errorf("sendmmsg saved no syscalls over %d packets in %d flushes", st.Packets, st.Flushes)
	}
}
