package wanfd

// Safety of the flat peer record. Delivery and expiry reach a peer's arena
// slot without the table lock, so both can arrive after RemovePeer retired
// the peer they were meant for and a later AddPeer moved another one into
// the same memory. These tests pin what the record's own mutex and its
// generation guarantee then — the slot's next occupant sees nothing of it —
// and that a detector initialised in a reused slot is the detector
// core.NewDetector would have built.

import (
	"fmt"
	"math/rand"
	"net"
	"net/netip"
	"sort"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"wanfd/internal/arena"
	"wanfd/internal/core"
	"wanfd/internal/layers"
	"wanfd/internal/neko"
	"wanfd/internal/sched"
	"wanfd/internal/sim"
	"wanfd/internal/telemetry"
	"wanfd/internal/transport"
)

// TestStragglerNeverReachesNextOccupant removes peer A and adds B into A's
// slot, then delivers what was in flight for A: a datagram from A's address
// through the transport, and a message that is already past the address
// lookup and carries A's handle. B must see neither.
func TestStragglerNeverReachesNextOccupant(t *testing.T) {
	for _, kind := range []struct {
		name string
		opts []Option
	}{
		{"freshness-point", nil},
		{"accrual", []Option{WithAccrualThreshold(8)}},
	} {
		t.Run(kind.name, func(t *testing.T) {
			var transitions atomic.Int64
			opts := append([]Option{WithEta(time.Second),
				WithOnChange(func(string, bool, time.Duration) { transitions.Add(1) })}, kind.opts...)
			mm, err := NewMultiMonitor("127.0.0.1:0", opts...)
			if err != nil {
				t.Fatal(err)
			}
			defer mm.Close()
			srcA := netip.MustParseAddrPort("127.0.0.9:4000")
			if err := mm.AddPeer("A", srcA.String()); err != nil {
				t.Fatal(err)
			}
			handleA := peerHandleOf(t, mm, "A")
			inj := mm.net.NewInjector()
			pkt := func(seq int64) [][]byte {
				return [][]byte{heartbeatPacket(t, 0, seq, mm.net.WallTime().UnixNano())}
			}
			inj.InjectBatch(pkt(1), []netip.AddrPort{srcA})
			if st, _ := mm.PeerStatusOf("A"); st.Heartbeats != 1 {
				t.Fatalf("A credited %d heartbeats before its removal, want 1", st.Heartbeats)
			}

			if err := mm.RemovePeer("A"); err != nil {
				t.Fatal(err)
			}
			// The arena hands the slot A just gave up to the next peer.
			const b = "B"
			if err := mm.AddPeer(b, "127.0.0.9:4001"); err != nil {
				t.Fatal(err)
			}
			handleB := peerHandleOf(t, mm, b)
			if handleB>>32 != handleA>>32 || handleB == handleA {
				t.Fatalf("B's handle %#x does not name A's slot (%#x) under a new generation", handleB, handleA)
			}
			mm.mu.RLock()
			reused := mm.ents.Stats().Reused
			mm.mu.RUnlock()
			if reused != 1 {
				t.Fatalf("peer arena reused %d slots, want 1", reused)
			}

			// From the wire: A's address is no longer anyone's.
			inj.InjectBatch(pkt(2), []netip.AddrPort{srcA})
			if got := mm.Stats().Ingest.UnknownSource; got != 1 {
				t.Errorf("UnknownSource = %d after a datagram from the removed peer, want 1", got)
			}
			// Past the address lookup: the message carries A's handle.
			now := mm.ctx.Clock.Now()
			mm.deliver(&neko.Message{Type: neko.MsgHeartbeat, Handle: handleA, Seq: 3, SentAt: now}, now)
			if got := mm.undelivered.Load(); got != 1 {
				t.Errorf("undelivered = %d after a stale-handle delivery, want 1", got)
			}
			st, err := mm.PeerStatusOf(b)
			if err != nil {
				t.Fatal(err)
			}
			if st.Heartbeats != 0 || st.Stale != 0 || st.Suspected {
				t.Errorf("B inherited %+v from its slot's previous occupant", st)
			}
			if n := transitions.Load(); n != 0 {
				t.Errorf("%d transitions fired, want 0", n)
			}
			if got := mm.SchedulerStats().Scheduled; got != 0 {
				t.Errorf("%d deadlines armed with no heartbeat delivered to a live peer, want 0", got)
			}
		})
	}
}

// TestStaleExpiryNeverSuspectsReAdd arms a short deadline for A, removes A
// and re-adds it into the same slot, and waits out the old deadline: the
// new A has received nothing, so it must not be suspected, and no deadline
// may be left on the wheels. Repeated, so that under -race some rounds have
// the expiry driver collecting the old deadline while the slot changes
// hands.
func TestStaleExpiryNeverSuspectsReAdd(t *testing.T) {
	const eta, floor = 2 * time.Millisecond, 3 * time.Millisecond
	var suspicions atomic.Int64
	mm, err := NewMultiMonitor("127.0.0.1:0", WithEta(eta), WithMinTimeout(floor),
		WithOnChange(func(_ string, suspected bool, _ time.Duration) {
			if suspected {
				suspicions.Add(1)
			}
		}))
	if err != nil {
		t.Fatal(err)
	}
	defer mm.Close()
	src := []netip.AddrPort{netip.MustParseAddrPort("127.0.0.9:4000")}
	inj := mm.net.NewInjector()
	if err := mm.AddPeer("A", src[0].String()); err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 40; round++ {
		slot := peerHandleOf(t, mm, "A") >> 32
		inj.InjectBatch([][]byte{heartbeatPacket(t, 0, 1, mm.net.WallTime().UnixNano())}, src)
		if got := mm.SchedulerStats().Scheduled; got != 1 {
			t.Fatalf("round %d: %d deadlines armed after A's heartbeat, want 1", round, got)
		}
		// Let some rounds reach the deadline's very edge before the removal.
		time.Sleep(time.Duration(round%6) * time.Millisecond)
		if err := mm.RemovePeer("A"); err != nil {
			t.Fatal(err)
		}
		// The old A may have been suspected, rightly, up to here; its
		// teardown waited out any callback in progress.
		before := suspicions.Load()
		if err := mm.AddPeer("A", src[0].String()); err != nil {
			t.Fatal(err)
		}
		if got := peerHandleOf(t, mm, "A") >> 32; got != slot {
			t.Fatalf("round %d: re-added A sits in slot %#x, want its old slot %#x", round, got, slot)
		}
		time.Sleep(eta + floor + 2*time.Millisecond)
		st, err := mm.PeerStatusOf("A")
		if err != nil {
			t.Fatal(err)
		}
		if st.Suspected || st.Suspicions != 0 || st.Heartbeats != 0 {
			t.Fatalf("round %d: re-added A is %+v before its first heartbeat", round, st)
		}
		if got := suspicions.Load(); got != before {
			t.Fatalf("round %d: %d suspicions reported after the old A's removal returned", round, got-before)
		}
		if got := mm.SchedulerStats().Scheduled; got != 0 {
			t.Fatalf("round %d: %d deadlines armed for a peer that has received nothing", round, got)
		}
	}
}

// TestStaleHandleSendDropped removes A and adds B into A's slot, then
// addresses A's stale handle the two ways the monitor sends: an interval
// controller's command, to A's old address and to the one B's record now
// holds, and a clock-sync exchange at B's address. Each must be dropped and
// counted, and B's socket must see nothing of them; a command by B's own
// handle then reaches B first.
func TestStaleHandleSendDropped(t *testing.T) {
	reg := telemetry.NewRegistry(0)
	mm, err := NewMultiMonitor("127.0.0.1:0", WithEta(time.Second), WithTelemetry(reg))
	if err != nil {
		t.Fatal(err)
	}
	defer mm.Close()
	var socks [2]*net.UDPConn
	for i := range socks {
		if socks[i], err = net.ListenUDP("udp4", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)}); err != nil {
			t.Fatal(err)
		}
		defer socks[i].Close()
	}
	if err := mm.AddPeer("A", socks[0].LocalAddr().String()); err != nil {
		t.Fatal(err)
	}
	senderA := peerSenderOf(t, mm, "A")
	if err := mm.RemovePeer("A"); err != nil {
		t.Fatal(err)
	}
	if err := mm.AddPeer("B", socks[1].LocalAddr().String()); err != nil {
		t.Fatal(err)
	}
	senderB := peerSenderOf(t, mm, "B")
	if senderB.h>>32 != senderA.h>>32 || senderB.h == senderA.h {
		t.Fatalf("B's handle %#x does not reuse A's slot under a new lifetime (%#x)", senderB.h, senderA.h)
	}
	command := func(s peerSender, seq int64) {
		s.Send(&neko.Message{From: multiMonitorID, Type: layers.MsgSetInterval, Seq: seq})
	}
	// A's stale handle, at A's old address and at the address B's record
	// now holds.
	sent := mm.Stats().Egress.Packets
	command(senderA, 1)
	command(peerSender{mm.net, senderB.a, senderA.h}, 1)
	if _, err := mm.net.SyncWith(senderB.a, senderA.h, 1, 50*time.Millisecond); err == nil {
		t.Error("clock sync by A's stale handle succeeded")
	}
	if got := mm.Stats().Egress.Packets; got != sent {
		t.Errorf("%d datagrams written for A's stale handle, want 0", got-sent)
	}
	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	if want := telemetry.MetricPacketsDropped + " 3\n"; !strings.Contains(b.String(), want) {
		t.Errorf("exposition lacks %q: the three stale sends were not counted", want)
	}

	command(senderB, 2)
	if err := socks[1].SetReadDeadline(time.Now().Add(2 * time.Second)); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 2048)
	nb, err := socks[1].Read(buf)
	if err != nil {
		t.Fatalf("B's command never arrived: %v", err)
	}
	if m, _, err := transport.Decode(buf[:nb]); err != nil || m.Type != layers.MsgSetInterval || m.Seq != 2 {
		t.Fatalf("B's first datagram is %+v (%v), want its own command", m, err)
	}
}

// transitionLog records one detector's output flips.
type transitionLog []string

func (l *transitionLog) OnSuspect(_ string, at time.Duration) {
	*l = append(*l, fmt.Sprintf("S@%d", at))
}
func (l *transitionLog) OnTrust(_ string, at time.Duration) {
	*l = append(*l, fmt.Sprintf("T@%d", at))
}

// TestInPlaceDetectorMatchesNewDetector runs one generated heartbeat
// schedule — jitter, reordering, duplicates, gaps and a long pause — through
// two detectors built from the same options in one virtual timeline: the
// reference, core.NewDetector on the bare event engine (the simulation
// stack's configuration, every deadline an exact event), and the production
// form, initialised in place in a peer-arena slot another detector has
// already lived in, sharing its environment and firing through its embedded
// handle on a timing wheel. They must flip at the same instants and count
// the same.
func TestInPlaceDetectorMatchesNewDetector(t *testing.T) {
	const eta = 100 * time.Millisecond
	for _, combo := range [][2]string{{"LAST", "JAC_med"}, {"ARIMA", "CI_high"}} {
		t.Run(combo[0]+"+"+combo[1], func(t *testing.T) {
			o := resolveOptions([]Option{WithEta(eta), WithPredictor(combo[0]), WithMargin(combo[1])})
			eng := sim.NewEngine()
			var refLog, flatLog transitionLog

			cfg, err := o.detectorConfig("q")
			if err != nil {
				t.Fatal(err)
			}
			cfg.Clock, cfg.Listener, cfg.MinTimeout = eng, &refLog, o.minTimeout
			ref, err := core.NewDetector(cfg)
			if err != nil {
				t.Fatal(err)
			}

			wheel := sched.NewWheel(sched.Config{Clock: eng})
			defer wheel.Close()
			env, err := core.NewDetectorEnv(wheel, &flatLog, o.minTimeout)
			if err != nil {
				t.Fatal(err)
			}
			ents := arena.New[peerEntry]()
			var flat *core.Detector
			for _, name := range []string{"previous occupant", "q"} {
				idx, e := ents.Alloc()
				if cfg, err = o.detectorConfig(name); err != nil {
					t.Fatal(err)
				}
				cfg.Env = env
				if err := e.det.Init(cfg); err != nil {
					t.Fatal(err)
				}
				if flat = &e.det; name == "q" {
					break
				}
				flat.OnHeartbeat(7, 0, time.Millisecond) // arms a deadline, counts
				flat.Stop()
				ents.Release(idx)
			}
			if len(flatLog) != 0 || ents.Stats().Reused != 1 {
				t.Fatalf("set-up: %d transitions, %d slots reused, want 0 and 1", len(flatLog), ents.Stats().Reused)
			}

			type arrival struct {
				seq      int64
				sent, at time.Duration
			}
			rng := rand.New(rand.NewSource(24))
			var arrivals []arrival
			for seq := int64(0); seq < 600; seq++ {
				sent := time.Duration(seq) * eta
				if seq >= 300 && seq < 330 || rng.Intn(20) == 0 {
					continue // the pause, and one heartbeat in twenty lost
				}
				delay := 20*time.Millisecond + time.Duration(rng.ExpFloat64()*float64(15*time.Millisecond))
				if rng.Intn(25) == 0 {
					delay += 2 * eta // overtaken by the next two
				}
				arrivals = append(arrivals, arrival{seq, sent, sent + delay})
				if rng.Intn(30) == 0 {
					arrivals = append(arrivals, arrival{seq, sent, sent + delay + time.Duration(rng.Intn(int(eta)))})
				}
			}
			sort.Slice(arrivals, func(i, j int) bool { return arrivals[i].at < arrivals[j].at })
			for _, a := range arrivals {
				a := a
				eng.At(a.at, func() {
					ref.OnHeartbeat(a.seq, a.sent, a.at)
					flat.OnHeartbeat(a.seq, a.sent, a.at)
				})
			}
			if err := eng.Run(700 * eta); err != nil {
				t.Fatal(err)
			}

			if len(refLog) < 4 {
				t.Fatalf("the schedule produced only %d transitions: %v", len(refLog), refLog)
			}
			if fmt.Sprint(refLog) != fmt.Sprint(flatLog) {
				t.Errorf("transition sequences differ:\n new     %v\n inplace %v", refLog, flatLog)
			}
			if r, f := ref.DetectorStats(), flat.DetectorStats(); r != f || r.Stale == 0 {
				t.Errorf("stats: new %+v, in place %+v (want equal, with stale heartbeats seen)", r, f)
			}
			if r, f := ref.CurrentTimeout(), flat.CurrentTimeout(); r != f {
				t.Errorf("timeout: new %v ms, in place %v ms", r, f)
			}
		})
	}
}
