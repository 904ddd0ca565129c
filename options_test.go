package wanfd

import (
	"encoding/binary"
	"fmt"
	stdnet "net"
	"sync"
	"testing"
	"time"

	"wanfd/internal/neko"
	"wanfd/internal/transport"
)

func TestNormalizeSentinels(t *testing.T) {
	cases := []struct {
		name string
		in   options
		want options
	}{
		{
			name: "zero value gets paper defaults",
			in:   options{},
			want: options{predictor: "LAST", margin: "JAC_med", minTimeout: DefaultMinTimeout},
		},
		{
			name: "explicit choices survive",
			in:   options{predictor: "ARIMA", margin: "CI_low", minTimeout: 25 * time.Millisecond},
			want: options{predictor: "ARIMA", margin: "CI_low", minTimeout: 25 * time.Millisecond},
		},
		{
			name: "negative min timeout disables the floor",
			in:   options{minTimeout: -1},
			want: options{predictor: "LAST", margin: "JAC_med", minTimeout: 0},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			o := tc.in
			o.normalize()
			if o.predictor != tc.want.predictor || o.margin != tc.want.margin || o.minTimeout != tc.want.minTimeout {
				t.Errorf("normalize(%+v) = %+v, want %+v", tc.in, o, tc.want)
			}
		})
	}
}

func TestResolveOptions(t *testing.T) {
	o := resolveOptions(nil)
	if o.eta != time.Second {
		t.Errorf("default eta = %v, want 1s", o.eta)
	}
	if o.predictor != "LAST" || o.margin != "JAC_med" || o.minTimeout != DefaultMinTimeout {
		t.Errorf("resolveOptions(nil) not normalized: %+v", o)
	}

	o = resolveOptions([]Option{
		WithEta(100 * time.Millisecond),
		WithPredictor("WINMEAN"),
		WithMargin("JAC_high"),
		WithMinTimeout(-1),
		nil, // nil options are tolerated
		WithPeer("a", "127.0.0.1:1"),
		WithPeer("b", "127.0.0.1:2"),
	})
	if o.eta != 100*time.Millisecond || o.predictor != "WINMEAN" || o.margin != "JAC_high" {
		t.Errorf("explicit options lost: %+v", o)
	}
	if o.minTimeout != 0 {
		t.Errorf("negative min timeout should normalize to no floor, got %v", o.minTimeout)
	}
	if len(o.peers) != 2 || o.peers[0] != (peerSpec{"a", "127.0.0.1:1"}) || o.peers[1] != (peerSpec{"b", "127.0.0.1:2"}) {
		t.Errorf("peers = %+v", o.peers)
	}
}

// skewedPeer is a hand-rolled heartbeating peer whose clock runs skew away
// from this host's: it answers the monitor's clock-sync requests and stamps
// a heartbeat every 10 ms, both on the skewed clock. It starts heartbeating
// at once, so some heartbeats reach the monitor before the peer is routed.
func skewedPeer(t *testing.T, listen, monAddr string, skew time.Duration) {
	t.Helper()
	laddr, err := stdnet.ResolveUDPAddr("udp", listen)
	if err != nil {
		t.Fatal(err)
	}
	raddr, err := stdnet.ResolveUDPAddr("udp", monAddr)
	if err != nil {
		t.Fatal(err)
	}
	conn, err := stdnet.ListenUDP("udp", laddr)
	if err != nil {
		t.Fatal(err)
	}
	now := func() int64 { return time.Now().Add(skew).UnixNano() }
	var wg sync.WaitGroup
	wg.Add(2)
	stop := make(chan struct{})
	t.Cleanup(func() {
		close(stop)
		conn.Close()
		wg.Wait()
	})
	go func() { // clock-sync responder
		defer wg.Done()
		buf := make([]byte, 2048)
		for {
			n, _, err := conn.ReadFromUDP(buf)
			if err != nil {
				return
			}
			req, _, err := transport.Decode(buf[:n])
			if err != nil || req.Type != transport.MsgTimeReq || len(req.Payload) < 8 {
				continue
			}
			// T1 echoed, then T2 (receive) and T3 (send) on the skewed clock.
			payload := append([]byte(nil), req.Payload[:8]...)
			payload = binary.BigEndian.AppendUint64(payload, uint64(now()))
			payload = binary.BigEndian.AppendUint64(payload, uint64(now()))
			resp := &neko.Message{Type: transport.MsgTimeResp, Seq: req.Seq, Payload: payload}
			if pkt, err := transport.Encode(nil, resp, now()); err == nil {
				_, _ = conn.WriteToUDP(pkt, raddr)
			}
		}
	}()
	go func() { // heartbeater
		defer wg.Done()
		tick := time.NewTicker(10 * time.Millisecond)
		defer tick.Stop()
		for seq := int64(0); ; seq++ {
			if pkt, err := transport.Encode(nil, &neko.Message{Type: neko.MsgHeartbeat, Seq: seq}, now()); err == nil {
				_, _ = conn.WriteToUDP(pkt, raddr)
			}
			select {
			case <-tick.C:
			case <-stop:
				return
			}
		}
	}()
}

// TestMultiMonitorPerPeerOptions covers the three behaviours that used to
// exist only on the single-peer Monitor, on a two-peer cluster: each is
// part of the one per-peer recipe AddPeer runs.
func TestMultiMonitorPerPeerOptions(t *testing.T) {
	const eta = 20 * time.Millisecond
	// startPair runs a real heartbeater for each of two peers.
	startPair := func(t *testing.T, monAddr, aAddr, bAddr string, eta time.Duration) (hbA *Heartbeater) {
		t.Helper()
		for _, addr := range []string{aAddr, bAddr} {
			hb, err := RunHeartbeater(HeartbeaterConfig{Listen: addr, Remote: monAddr, Eta: eta})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { hb.Close() })
			if hbA == nil {
				hbA = hb
			}
		}
		return hbA
	}
	status := func(t *testing.T, mon *MultiMonitor, peer string) PeerStatus {
		t.Helper()
		st, err := mon.PeerStatusOf(peer)
		if err != nil {
			t.Fatal(err)
		}
		return st
	}

	t.Run("WithAccrualThreshold", func(t *testing.T) {
		addrs := freeUDPPorts(t, 3)
		hbA := startPair(t, addrs[0], addrs[1], addrs[2], eta)
		mon, err := NewMultiMonitor(addrs[0], WithEta(eta), WithAccrualThreshold(3),
			WithPeer("a", addrs[1]), WithPeer("b", addrs[2]))
		if err != nil {
			t.Fatal(err)
		}
		defer mon.Close()
		if !waitFor(t, 3*time.Second, func() bool {
			return status(t, mon, "a").Heartbeats >= 10 && status(t, mon, "b").Heartbeats >= 10
		}) {
			t.Fatal("no heartbeats delivered")
		}
		if st := status(t, mon, "a"); st.Timeout != 0 || st.Phi < 0 {
			t.Errorf("accrual peer status = %+v, want Timeout 0 and a φ level", st)
		}
		_ = hbA.Close()
		if !waitFor(t, 3*time.Second, func() bool { return status(t, mon, "a").Suspected }) {
			t.Fatal("accrual detector did not detect a's crash")
		}
		if st := status(t, mon, "a"); st.Phi <= 3 {
			t.Errorf("phi = %v after crash, want above the threshold", st.Phi)
		}
		if status(t, mon, "b").Suspected {
			t.Error("b wrongly suspected after a's crash")
		}
		if st := mon.Stats(); st.Detector.Heartbeats < 20 || st.Scheduler.Fired == 0 {
			t.Errorf("stats = %+v, want both peers' heartbeats summed and the crossing fired on the wheel", st)
		}
	})

	t.Run("WithSyncClock", func(t *testing.T) {
		addrs := freeUDPPorts(t, 3)
		// Both peers' clocks run behind, by different amounts: uncorrected,
		// their heartbeats would read as seconds of one-way delay.
		skews := map[string]time.Duration{"a": -5 * time.Second, "b": -2 * time.Second}
		skewedPeer(t, addrs[1], addrs[0], skews["a"])
		skewedPeer(t, addrs[2], addrs[0], skews["b"])
		mon, err := NewMultiMonitor(addrs[0], WithEta(10*time.Millisecond), WithSyncClock(),
			WithPeer("a", addrs[1]), WithPeer("b", addrs[2]))
		if err != nil {
			t.Fatal(err)
		}
		defer mon.Close()
		for peer, skew := range skews {
			if !waitFor(t, 3*time.Second, func() bool { return status(t, mon, peer).Heartbeats >= 1 }) {
				t.Fatalf("%s: no heartbeat delivered", peer)
			}
			st := status(t, mon, peer)
			if d := st.ClockOffset - skew; d < -100*time.Millisecond || d > 100*time.Millisecond {
				t.Errorf("%s: clock offset %v, want ≈ %v", peer, st.ClockOffset, skew)
			}
			// LAST predicts the delay it last measured, so one uncorrected
			// heartbeat would push the timeout past |skew|.
			if st.Timeout > time.Second {
				t.Errorf("%s: timeout %v after %d heartbeats — a heartbeat was delivered uncorrected",
					peer, st.Timeout, st.Heartbeats)
			}
		}
	})

	t.Run("WithTargetDetection", func(t *testing.T) {
		addrs := freeUDPPorts(t, 3)
		// 2 Hz is deliberately slow for the target, which demands η ≈ 170 ms.
		startPair(t, addrs[0], addrs[1], addrs[2], 500*time.Millisecond)
		mon, err := NewMultiMonitor(addrs[0], WithTargetDetection(200*time.Millisecond),
			WithPeer("a", addrs[1]), WithPeer("b", addrs[2]))
		if err != nil {
			t.Fatal(err)
		}
		defer mon.Close()
		// Each peer's controller first evaluates after its 10 s period and
		// commands its own heartbeater: both rates must rise.
		for _, peer := range []string{"a", "b"} {
			if !waitFor(t, 25*time.Second, func() bool {
				before := status(t, mon, peer).Heartbeats
				time.Sleep(time.Second)
				return status(t, mon, peer).Heartbeats-before >= 4
			}) {
				t.Errorf("%s: heartbeat rate never rose above 2 Hz; adaptive interval not applied", peer)
			}
		}
		if mon, err := NewMultiMonitor(addrs[0], WithTargetDetection(time.Second), WithAccrualThreshold(8)); err == nil {
			mon.Close()
			t.Error("TargetDetection + AccrualThreshold should be rejected")
		}
	})
}

func TestMultiMonitorRejectsBadCombo(t *testing.T) {
	addr := freeUDPPorts(t, 1)[0]
	if mon, err := NewMultiMonitor(addr, WithPredictor("NOPE")); err == nil {
		mon.Close()
		t.Error("unknown predictor accepted")
	}
	if mon, err := NewMultiMonitor(addr, WithMargin("NOPE")); err == nil {
		mon.Close()
		t.Error("unknown margin accepted")
	}
	// A non-positive η is refused at construction, not by every AddPeer.
	if mon, err := NewMultiMonitor(addr, WithEta(0)); err == nil {
		mon.Close()
		t.Error("zero eta accepted")
	}
}

func TestNewMonitorRejectsWithPeer(t *testing.T) {
	addrs := freeUDPPorts(t, 2)
	mon, err := NewMonitor(addrs[0], addrs[1], WithPeer("x", "127.0.0.1:1"))
	if err == nil {
		mon.Close()
		t.Fatal("NewMonitor accepted WithPeer")
	}
}

// TestNewMonitorOptions smoke-tests the single-peer functional-options
// entry point end to end, including the peer label passed to WithOnChange.
func TestNewMonitorOptions(t *testing.T) {
	addrs := freeUDPPorts(t, 2)
	monAddr, hbAddr := addrs[0], addrs[1]
	const eta = 20 * time.Millisecond

	type change struct {
		peer      string
		suspected bool
	}
	changes := make(chan change, 16)
	mon, err := NewMonitor(monAddr, hbAddr,
		WithEta(eta),
		WithOnChange(func(peer string, suspected bool, _ time.Duration) {
			changes <- change{peer, suspected}
		}))
	if err != nil {
		t.Fatal(err)
	}
	defer mon.Close()

	hb, err := RunHeartbeater(HeartbeaterConfig{Listen: hbAddr, Remote: monAddr, Eta: eta})
	if err != nil {
		t.Fatal(err)
	}
	if !waitFor(t, 3*time.Second, func() bool {
		return mon.DetectorStats().Heartbeats >= 5
	}) {
		t.Fatal("no heartbeats delivered")
	}
	_ = hb.Close()

	select {
	case c := <-changes:
		if c.peer != hbAddr || !c.suspected {
			t.Errorf("first change = %+v, want suspect of %s", c, hbAddr)
		}
	case <-time.After(3 * time.Second):
		t.Fatal("silence never reported through WithOnChange")
	}
	if !mon.Suspected() {
		t.Error("monitor not suspected after silence")
	}
}

// TestNewMonitorAllCallbacks pins the merged listener: WithOnSuspect,
// WithOnTrust and WithOnChange set together all fire, suspicion before
// trust, the split callback ahead of OnChange on each transition, and
// OnChange carries the remote address as the peer label. The fold lives in
// the shared constructor, so a cluster gets the same behaviour.
func TestNewMonitorAllCallbacks(t *testing.T) {
	const eta = 20 * time.Millisecond
	// start builds the monitor under test watching hbAddr (labeled by its
	// address) and returns that peer's heartbeat count and output.
	rows := []struct {
		name  string
		start func(t *testing.T, monAddr, hbAddr string, opts []Option) (heartbeats func() uint64, suspected func() bool)
	}{
		{"single peer", func(t *testing.T, monAddr, hbAddr string, opts []Option) (func() uint64, func() bool) {
			mon, err := NewMonitor(monAddr, hbAddr, opts...)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { mon.Close() })
			return func() uint64 { return mon.DetectorStats().Heartbeats }, mon.Suspected
		}},
		{"two-peer cluster", func(t *testing.T, monAddr, hbAddr string, opts []Option) (func() uint64, func() bool) {
			// The second peer stays healthy throughout; the timeout floor
			// keeps scheduling jitter from adding transitions of its own.
			otherAddr := freeUDPPorts(t, 1)[0]
			other, err := RunHeartbeater(HeartbeaterConfig{Listen: otherAddr, Remote: monAddr, Eta: eta})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { other.Close() })
			mon, err := NewMultiMonitor(monAddr, append(opts,
				WithMinTimeout(250*time.Millisecond), WithPeer(hbAddr, hbAddr), WithPeer("other", otherAddr))...)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { mon.Close() })
			status := func() PeerStatus {
				st, err := mon.PeerStatusOf(hbAddr)
				if err != nil {
					t.Error(err)
				}
				return st
			}
			return func() uint64 { return status().Heartbeats }, func() bool { return status().Suspected }
		}},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			addrs := freeUDPPorts(t, 2)
			monAddr, hbAddr := addrs[0], addrs[1]

			calls := make(chan string, 64)
			heartbeats, suspected := row.start(t, monAddr, hbAddr, []Option{
				WithEta(eta),
				WithOnSuspect(func(time.Duration) { calls <- "suspect" }),
				WithOnTrust(func(time.Duration) { calls <- "trust" }),
				WithOnChange(func(peer string, suspected bool, _ time.Duration) {
					calls <- fmt.Sprintf("change %s %v", peer, suspected)
				}),
			})

			hb, err := RunHeartbeater(HeartbeaterConfig{Listen: hbAddr, Remote: monAddr, Eta: eta})
			if err != nil {
				t.Fatal(err)
			}
			if !waitFor(t, 3*time.Second, func() bool { return heartbeats() >= 5 }) {
				t.Fatal("no heartbeats delivered")
			}
			_ = hb.Close()
			if !waitFor(t, 3*time.Second, suspected) {
				t.Fatal("silence never suspected")
			}
			hb, err = RunHeartbeater(HeartbeaterConfig{Listen: hbAddr, Remote: monAddr, Eta: eta})
			if err != nil {
				t.Fatal(err)
			}
			defer hb.Close()

			// The first S→T episode is exactly these four calls, in this order;
			// whatever jitter adds afterwards is not this test's business.
			want := []string{
				"suspect", "change " + hbAddr + " true",
				"trust", "change " + hbAddr + " false",
			}
			for i, w := range want {
				select {
				case got := <-calls:
					if got != w {
						t.Fatalf("callback %d = %q, want %q", i, got, w)
					}
				case <-time.After(3 * time.Second):
					t.Fatalf("callback %d (%q) never fired", i, w)
				}
			}
		})
	}
}

func TestWithPipeline(t *testing.T) {
	// The zero config is a no-op: every knob stays at its default.
	o := resolveOptions([]Option{WithPipeline(PipelineConfig{})})
	if o.readers != 0 || o.expectedPeers != 0 {
		t.Errorf("zero PipelineConfig must change nothing: %+v", o)
	}
	o = resolveOptions([]Option{WithPipeline(PipelineConfig{
		Readers:       3,
		ExpectedPeers: 1 << 16,
	})})
	if o.readers != 3 || o.expectedPeers != 1<<16 {
		t.Errorf("pipeline knobs lost: %+v", o)
	}
	// Fields are orthogonal: a later config that sets one knob leaves the
	// others where an earlier one put them.
	o = resolveOptions([]Option{
		WithPipeline(PipelineConfig{ExpectedPeers: 1 << 16, Readers: 3}),
		WithPipeline(PipelineConfig{Readers: 2}),
	})
	if o.expectedPeers != 1<<16 || o.readers != 2 {
		t.Errorf("second WithPipeline disturbed unrelated knobs: %+v", o)
	}
}
