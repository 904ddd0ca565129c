package wanfd

import (
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"wanfd/internal/telemetry"
)

func TestMultiMonitorValidation(t *testing.T) {
	if _, err := NewMultiMonitor("127.0.0.1:0", WithPeer("a", "not::an::addr")); err == nil {
		t.Error("bad peer address should be rejected")
	}
	if _, err := NewMultiMonitor("127.0.0.1:0", WithPeer("", "127.0.0.1:1")); err == nil {
		t.Error("empty peer name should be rejected")
	}
	if _, err := NewMultiMonitor("127.0.0.1:0", WithPeer("a", "127.0.0.1:1"), WithPredictor("NOPE")); err == nil {
		t.Error("unknown predictor should be rejected")
	}
}

func TestMultiMonitorTwoPeers(t *testing.T) {
	addrs := freeUDPPorts(t, 3)
	monAddr, aAddr, bAddr := addrs[0], addrs[1], addrs[2]
	const eta = 25 * time.Millisecond

	var mu sync.Mutex
	events := make(map[string][]bool)
	mon, err := NewMultiMonitor(monAddr,
		WithPeer("alpha", aAddr), WithPeer("beta", bAddr),
		WithEta(eta),
		WithOnChange(func(peer string, suspected bool, _ time.Duration) {
			mu.Lock()
			events[peer] = append(events[peer], suspected)
			mu.Unlock()
		}))
	if err != nil {
		t.Fatal(err)
	}
	defer mon.Close()

	hbA, err := RunHeartbeater(HeartbeaterConfig{Listen: aAddr, Remote: monAddr, Eta: eta})
	if err != nil {
		t.Fatal(err)
	}
	defer hbA.Close()
	hbB, err := RunHeartbeater(HeartbeaterConfig{Listen: bAddr, Remote: monAddr, Eta: eta})
	if err != nil {
		t.Fatal(err)
	}
	defer hbB.Close()

	time.Sleep(400 * time.Millisecond)
	status := mon.Status()
	if len(status) != 2 {
		t.Fatalf("status entries = %d, want 2", len(status))
	}
	for _, s := range status {
		if s.Heartbeats < 5 {
			t.Errorf("peer %s saw only %d heartbeats", s.Peer, s.Heartbeats)
		}
	}

	// Crash only alpha; beta must stay trusted.
	_ = hbA.Close()
	deadline := time.Now().Add(3 * time.Second)
	for time.Now().Before(deadline) {
		s, err := mon.Suspected("alpha")
		if err != nil {
			t.Fatal(err)
		}
		if s {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	suspA, err := mon.Suspected("alpha")
	if err != nil {
		t.Fatal(err)
	}
	if !suspA {
		t.Fatal("alpha's crash not detected")
	}
	suspB, err := mon.Suspected("beta")
	if err != nil {
		t.Fatal(err)
	}
	if suspB {
		t.Error("beta wrongly suspected after alpha's crash")
	}
	mu.Lock()
	defer mu.Unlock()
	if len(events["alpha"]) == 0 || !events["alpha"][len(events["alpha"])-1] {
		t.Errorf("alpha events = %v, want trailing suspect", events["alpha"])
	}
	if _, err := mon.Suspected("nobody"); err == nil {
		t.Error("unknown peer should be rejected")
	}
	if mon.LocalAddr() == "" {
		t.Error("LocalAddr empty")
	}
}

func TestMultiMonitorTrustCallbackAfterRecovery(t *testing.T) {
	addrs := freeUDPPorts(t, 2)
	monAddr, aAddr := addrs[0], addrs[1]
	const eta = 20 * time.Millisecond

	var mu sync.Mutex
	var transitions []bool
	mon, err := NewMultiMonitor(monAddr,
		WithPeer("a", aAddr),
		WithEta(eta),
		WithOnChange(func(_ string, suspected bool, _ time.Duration) {
			mu.Lock()
			transitions = append(transitions, suspected)
			mu.Unlock()
		}))
	if err != nil {
		t.Fatal(err)
	}
	defer mon.Close()

	hb, err := RunHeartbeater(HeartbeaterConfig{Listen: aAddr, Remote: monAddr, Eta: eta})
	if err != nil {
		t.Fatal(err)
	}
	if hb.LocalAddr() == "" {
		t.Error("heartbeater LocalAddr empty")
	}
	time.Sleep(200 * time.Millisecond)
	_ = hb.Close()
	deadline := time.Now().Add(3 * time.Second)
	for time.Now().Before(deadline) {
		if s, _ := mon.Suspected("a"); s {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	// Recover: the OnChange trust path must fire.
	hb2, err := RunHeartbeater(HeartbeaterConfig{Listen: aAddr, Remote: monAddr, Eta: eta})
	if err != nil {
		t.Fatal(err)
	}
	defer hb2.Close()
	deadline = time.Now().Add(3 * time.Second)
	for time.Now().Before(deadline) {
		if s, _ := mon.Suspected("a"); !s {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	mu.Lock()
	defer mu.Unlock()
	sawTrust := false
	for _, s := range transitions {
		if !s {
			sawTrust = true
		}
	}
	if !sawTrust {
		t.Errorf("transitions %v: no trust callback after recovery", transitions)
	}
}

// TestQoSWindowFollowsMembership: a peer's accuracy window opens when the
// monitor publishes it and closes when the monitor removes it, so a
// re-added name starts a fresh one; a rejected duplicate leaves the live
// peer's window alone.
func TestQoSWindowFollowsMembership(t *testing.T) {
	addrs := freeUDPPorts(t, 3)
	reg := telemetry.NewRegistry(16)
	mon, err := NewMultiMonitor(addrs[0], WithPeer("alpha", addrs[1]), WithTelemetry(reg))
	if err != nil {
		t.Fatal(err)
	}
	defer mon.Close()
	q, ok := reg.QoS("alpha")
	if !ok {
		t.Fatal("no accuracy window for a published peer")
	}
	first := q.From
	if err := mon.AddPeer("alpha", addrs[2]); err == nil {
		t.Fatal("duplicate name accepted")
	}
	if q, _ := reg.QoS("alpha"); q.From != first {
		t.Errorf("rejected duplicate reopened the window at %v (was %v)", q.From, first)
	}
	if err := mon.RemovePeer("alpha"); err != nil {
		t.Fatal(err)
	}
	if _, ok := reg.QoS("alpha"); ok {
		t.Error("window still open after RemovePeer")
	}
	time.Sleep(time.Millisecond)
	if err := mon.AddPeer("alpha", addrs[1]); err != nil {
		t.Fatal(err)
	}
	if q, ok := reg.QoS("alpha"); !ok || q.From <= first {
		t.Errorf("re-added peer's window = %+v (ok %v), want a fresh one after %v", q, ok, first)
	}
}

// TestAccrualPeerObservable checks that a φ-accrual peer is observable like
// any peer: its detector series, a timeout gauge reading mean + z·σ, its
// heartbeat samples in the store, and RemovePeer retiring its series.
func TestAccrualPeerObservable(t *testing.T) {
	addrs := freeUDPPorts(t, 2)
	monAddr, aAddr := addrs[0], addrs[1]
	const eta = 20 * time.Millisecond
	hb, err := RunHeartbeater(HeartbeaterConfig{Listen: aAddr, Remote: monAddr, Eta: eta})
	if err != nil {
		t.Fatal(err)
	}
	defer hb.Close()
	st, err := OpenStore(StoreConfig{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	reg := telemetry.NewRegistry(16)
	mon, err := NewMultiMonitor(monAddr, WithEta(eta), WithAccrualThreshold(8),
		WithTelemetry(reg), WithStore(st), WithPeer("a", aAddr))
	if err != nil {
		t.Fatal(err)
	}
	defer mon.Close()
	if !waitFor(t, 3*time.Second, func() bool {
		s, err := mon.PeerStatusOf("a")
		return err == nil && s.Heartbeats >= 10
	}) {
		t.Fatal("no heartbeats delivered")
	}
	series := func() map[string]float64 {
		t.Helper()
		var b strings.Builder
		if err := reg.WritePrometheus(&b); err != nil {
			t.Fatal(err)
		}
		out := make(map[string]float64)
		for _, line := range strings.Split(b.String(), "\n") {
			name, val, ok := strings.Cut(line, `{peer="a"} `)
			if !ok {
				continue
			}
			v, err := strconv.ParseFloat(val, 64)
			if err != nil {
				t.Fatalf("bad sample %q", line)
			}
			out[name] = v
		}
		return out
	}
	got := series()
	for _, name := range []string{
		telemetry.MetricHeartbeats, telemetry.MetricHeartbeatsStale,
		telemetry.MetricFreshnessMisses, telemetry.MetricPeerSuspected,
		telemetry.MetricHeartbeatsLate,
	} {
		if _, ok := got[name]; !ok {
			t.Errorf("no %s series for the accrual peer: %v", name, got)
		}
	}
	// mean + z·σ: an inter-arrival near η plus z(8) ≈ 5.6 times σ, which is
	// at least the 10 ms floor.
	if to := got[telemetry.MetricDetectorTimeout]; to < 0.05 {
		t.Errorf("timeout gauge = %v s, want mean + z·σ above 50 ms", to)
	}
	if s, _ := mon.PeerStatusOf("a"); s.Timeout != 0 {
		t.Errorf("accrual peer status Timeout = %v, want 0", s.Timeout)
	}
	if err := st.Sync(); err != nil {
		t.Fatal(err)
	}
	rep, err := st.Query(0, 0, "a")
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Peers) != 1 || rep.Peers[0].Samples == 0 {
		t.Errorf("store window = %+v, want the accrual peer's heartbeat samples", rep.Peers)
	}
	if err := mon.RemovePeer("a"); err != nil {
		t.Fatal(err)
	}
	if got := series(); len(got) != 0 {
		t.Errorf("series left after RemovePeer: %v", got)
	}
}
