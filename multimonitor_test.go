package wanfd

import (
	"net/netip"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"wanfd/internal/neko"
	"wanfd/internal/nekostat"
	"wanfd/internal/telemetry"
)

// qosWindow returns a copy of the named member's accuracy window, read from
// its telemetry bundle; ok is false for a non-member or a closed window.
func qosWindow(m *MultiMonitor, name string) (q nekostat.Accountant, ok bool) {
	m.view(name, func(e *peerEntry) { q, ok = e.det.Metrics().Window() })
	return q, ok
}

// peerLines counts each peer's lines in one exposition.
func peerLines(out string) map[string]int {
	n := make(map[string]int)
	for _, line := range strings.Split(out, "\n") {
		if _, rest, ok := strings.Cut(line, `{peer="`); ok {
			name, _, _ := strings.Cut(rest, `"`)
			n[name]++
		}
	}
	return n
}

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
	q, ok := qosWindow(mon, "alpha")
	if !ok {
		t.Fatal("no accuracy window for a published peer")
	}
	first := q.From
	if err := mon.AddPeer("alpha", addrs[2]); err == nil {
		t.Fatal("duplicate name accepted")
	}
	if q, _ := qosWindow(mon, "alpha"); q.From != first {
		t.Errorf("rejected duplicate reopened the window at %v (was %v)", q.From, first)
	}
	if err := mon.RemovePeer("alpha"); err != nil {
		t.Fatal(err)
	}
	if _, ok := qosWindow(mon, "alpha"); ok {
		t.Error("window still open after RemovePeer")
	}
	time.Sleep(time.Millisecond)
	if err := mon.AddPeer("alpha", addrs[1]); err != nil {
		t.Fatal(err)
	}
	if q, ok := qosWindow(mon, "alpha"); !ok || q.From <= first {
		t.Errorf("re-added peer's window = %+v (ok %v), want a fresh one after %v", q, ok, first)
	}
}

// TestRemoveRacingReAddKeepsNewSeries: a RemovePeer that is still tearing
// the old detector down when an AddPeer of the same name publishes must not
// retire the new peer's series or close its accuracy window. The old
// detector's mutex is held by a suspicion callback that waits, so the
// removal stalls at the detector's Stop after the name has left the table;
// the re-add publishes then, and only afterwards is the callback let go.
func TestRemoveRacingReAddKeepsNewSeries(t *testing.T) {
	addrs := freeUDPPorts(t, 3)
	reg := telemetry.NewRegistry(16)
	entered, release := make(chan struct{}), make(chan struct{})
	var once sync.Once
	mon, err := NewMultiMonitor(addrs[0], WithTelemetry(reg), WithPeer("alpha", addrs[1]),
		WithEta(20*time.Millisecond), WithOnChange(func(peer string, suspected bool, _ time.Duration) {
			if peer == "alpha" && suspected {
				once.Do(func() { close(entered); <-release })
			}
		}))
	if err != nil {
		t.Fatal(err)
	}
	defer mon.Close()
	defer func() {
		select {
		case <-release:
		default:
			close(release)
		}
	}()

	// One heartbeat and then silence: the old detector suspects at its
	// freshness point, and the callback holds its mutex.
	mon.net.NewInjector().InjectBatch(
		[][]byte{heartbeatPacket(t, 0, 1, mon.net.WallTime().UnixNano())},
		[]netip.AddrPort{netip.MustParseAddrPort(addrs[1])})
	<-entered
	removed := make(chan error, 1)
	go func() { removed <- mon.RemovePeer("alpha") }()
	for mon.Peers() != 0 {
		time.Sleep(100 * time.Microsecond)
	}
	if err := mon.AddPeer("alpha", addrs[2]); err != nil {
		t.Fatal(err)
	}
	close(release)
	if err := <-removed; err != nil {
		t.Fatal(err)
	}

	if _, ok := qosWindow(mon, "alpha"); !ok {
		t.Error("the re-added peer's accuracy window was closed by the earlier removal")
	}
	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	for _, series := range []string{
		`wanfd_heartbeats_total{peer="alpha"}`,
		`wanfd_heartbeats_late_total{peer="alpha"}`,
		`wanfd_qos_pa{peer="alpha"}`,
	} {
		if !strings.Contains(b.String(), series) {
			t.Errorf("the re-added peer's series %s was dropped by the earlier removal", series)
		}
	}
}

// TestScrapeDuringChurn scrapes in a loop while one name is removed and
// re-added over and over and the other peers flip between suspected and
// trusted. Every scrape shows each peer's ten lines whole or not at all; a
// scrape after RemovePeer returns names the peer nowhere; and a re-added
// name starts from zeroed counters and a fresh accuracy window, though its
// previous detector had heartbeats, a late one and a mistake.
func TestScrapeDuringChurn(t *testing.T) {
	const (
		rounds       = 200
		linesPerPeer = 10
	)
	reg := telemetry.NewRegistry(0)
	steady := []string{"s0", "s1", "s2"}
	// A MEAN predictor does not forecast a heartbeat's own delay, so one
	// delayed by an hour suspects and the next prompt one trusts.
	mm := benchCluster(t, append(steady, "churn"), benchPeerAddr, WithTelemetry(reg),
		WithPredictor("MEAN"), WithMargin("CI_low"), WithOnChange(func(string, bool, time.Duration) {}))
	clk := mm.ctx.Clock
	beat := func(handle uint64, seq int64, delay time.Duration) {
		now := clk.Now()
		mm.deliver(&neko.Message{Type: neko.MsgHeartbeat, Handle: handle, Seq: seq, SentAt: now - delay}, now)
	}
	scrape := func() string {
		var b strings.Builder
		if err := reg.WritePrometheus(&b); err != nil {
			t.Error(err)
		}
		return b.String()
	}

	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { // scrapes
		defer wg.Done()
		for {
			select {
			case <-done:
				return
			default:
			}
			for name, n := range peerLines(scrape()) {
				if n != linesPerPeer {
					t.Errorf("a scrape shows %d lines of peer %s, want %d", n, name, linesPerPeer)
					return
				}
			}
		}
	}()
	go func() { // suspect/trust transitions of the steady peers
		defer wg.Done()
		handles := make([]uint64, len(steady))
		for i, name := range steady {
			handles[i] = peerHandleOf(t, mm, name)
		}
		for seq := int64(1); ; seq += 2 {
			select {
			case <-done:
				return
			default:
			}
			for _, h := range handles {
				beat(h, seq, time.Hour)
				beat(h, seq+1, 0)
			}
		}
	}()

	fresh := []string{
		`wanfd_heartbeats_late_total{peer="churn"} 0`,
		`wanfd_heartbeats_total{peer="churn"} 0`,
		`wanfd_heartbeats_stale_total{peer="churn"} 0`,
		`wanfd_freshness_misses_total{peer="churn"} 0`,
		`wanfd_peer_suspected{peer="churn"} 0`,
		`wanfd_suspicion_transitions_total{peer="churn"} 0`,
		`wanfd_qos_pa{peer="churn"} 1`,
		`wanfd_qos_tm_seconds{peer="churn"} 0`,
		`wanfd_qos_tmr_seconds{peer="churn"} 0`,
	}
	var opened time.Duration
	for r := 0; r < rounds && !t.Failed(); r++ {
		// Heartbeats, a suspicion with a late arrival inside it, and a trust:
		// every count and the window have moved.
		h := peerHandleOf(t, mm, "churn")
		for seq := int64(1); seq <= 8; seq++ {
			beat(h, seq, 0)
		}
		beat(h, 9, time.Hour)
		beat(h, 10, time.Hour)
		beat(h, 11, 0)
		if q, ok := qosWindow(mm, "churn"); !ok || q.Mistakes != 1 {
			t.Fatalf("round %d: window %+v (open %v) before removal, want one mistake", r, q, ok)
		}
		if err := mm.RemovePeer("churn"); err != nil {
			t.Fatal(err)
		}
		if out := scrape(); strings.Contains(out, `peer="churn"`) {
			t.Fatalf("round %d: a scrape after RemovePeer names the peer:\n%s", r, out)
		}
		if err := mm.AddPeer("churn", benchPeerAddr(len(steady))); err != nil {
			t.Fatal(err)
		}
		out := scrape()
		for _, line := range fresh {
			if !strings.Contains(out, line+"\n") {
				t.Errorf("round %d: the re-added peer does not show %s", r, line)
			}
		}
		q, ok := qosWindow(mm, "churn")
		if !ok || q != (nekostat.Accountant{From: q.From}) || q.From < opened {
			t.Errorf("round %d: re-added window %+v (open %v), want a fresh one from %v on", r, q, ok, opened)
		}
		opened = q.From
	}
	close(done)
	wg.Wait()
}

// TestFailedAddPeerLeavesNoSeries: an AddPeer that fails — on an address
// another peer holds, on an address that does not parse, or on a name
// already monitored — leaves nothing behind: the scrape is what it was,
// with no series of the rejected name, and no accuracy window opens for it.
func TestFailedAddPeerLeavesNoSeries(t *testing.T) {
	addrs := freeUDPPorts(t, 3)
	reg := telemetry.NewRegistry(16)
	mon, err := NewMultiMonitor(addrs[0], WithTelemetry(reg), WithPeer("alpha", addrs[1]))
	if err != nil {
		t.Fatal(err)
	}
	defer mon.Close()
	scrape := func() string {
		t.Helper()
		var b strings.Builder
		if err := reg.WritePrometheus(&b); err != nil {
			t.Fatal(err)
		}
		return b.String()
	}
	before := scrape()
	window, _ := qosWindow(mon, "alpha")
	for _, c := range []struct{ what, name, addr string }{
		{"a duplicate address", "alias", addrs[1]},
		{"an address with no port", "noport", "127.0.0.1"},
		{"a duplicate name", "alpha", addrs[2]},
	} {
		if err := mon.AddPeer(c.name, c.addr); err == nil {
			t.Fatalf("%s: AddPeer(%q, %q) succeeded", c.what, c.name, c.addr)
		}
		after := scrape()
		if c.name != "alpha" {
			if strings.Contains(after, `peer="`+c.name+`"`) {
				t.Errorf("%s: series of %q left behind:\n%s", c.what, c.name, after)
			}
			if _, ok := qosWindow(mon, c.name); ok {
				t.Errorf("%s: accuracy window of %q left open", c.what, c.name)
			}
		} else if q, _ := qosWindow(mon, "alpha"); q != window {
			t.Errorf("%s: the live peer's window became %+v (was %+v)", c.what, q, window)
		}
		if after != before {
			t.Errorf("%s: scrape changed:\n%s\nwas:\n%s", c.what, after, before)
		}
	}
	if n := mon.Peers(); n != 1 {
		t.Errorf("%d peers after the failed adds, want 1", n)
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
