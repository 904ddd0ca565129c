package wanfd

import (
	"fmt"
	stdnet "net"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"wanfd/internal/layers"
	"wanfd/internal/neko"
	"wanfd/internal/transport"
)

func TestPublicNames(t *testing.T) {
	if got := PredictorNames(); len(got) != 5 {
		t.Errorf("predictors = %v, want 5", got)
	}
	if got := MarginNames(); len(got) != 6 {
		t.Errorf("margins = %v, want 6", got)
	}
	combos := Combinations()
	if len(combos) != 30 {
		t.Fatalf("combinations = %d, want 30", len(combos))
	}
	if combos[0].Name() == "" {
		t.Error("combination name empty")
	}
	// Returned slices are copies.
	ps := PredictorNames()
	ps[0] = "HACKED"
	if PredictorNames()[0] == "HACKED" {
		t.Error("PredictorNames returns internal slice")
	}
}

func TestNewPredictorAndMargin(t *testing.T) {
	for _, n := range PredictorNames() {
		if _, err := NewPredictor(n); err != nil {
			t.Errorf("NewPredictor(%q): %v", n, err)
		}
	}
	for _, n := range MarginNames() {
		if _, err := NewMargin(n); err != nil {
			t.Errorf("NewMargin(%q): %v", n, err)
		}
	}
	if _, err := NewPredictor("NOPE"); err == nil {
		t.Error("unknown predictor should fail")
	}
	if _, err := NewMargin("NOPE"); err == nil {
		t.Error("unknown margin should fail")
	}
}

func TestNewDetectorValidation(t *testing.T) {
	if _, err := NewDetector(DetectorConfig{Margin: "JAC_med", Eta: time.Second}); err == nil {
		t.Error("missing predictor should fail")
	}
	if _, err := NewDetector(DetectorConfig{Predictor: "LAST", Eta: time.Second}); err == nil {
		t.Error("missing margin should fail")
	}
	if _, err := NewDetector(DetectorConfig{Predictor: "LAST", Margin: "JAC_med"}); err == nil {
		t.Error("missing eta should fail")
	}
	if _, err := NewDetector(DetectorConfig{Predictor: "NOPE", Margin: "JAC_med", Eta: time.Second}); err == nil {
		t.Error("unknown predictor should fail")
	}
	if _, err := NewDetector(DetectorConfig{Predictor: "LAST", Margin: "NOPE", Eta: time.Second}); err == nil {
		t.Error("unknown margin should fail")
	}
}

// TestDeprecatedStatsWrapper pins the deprecated tuple Stats to the
// DetectorStats snapshot it wraps, so the wrapper cannot silently drift
// while external callers migrate.
func TestDeprecatedStatsWrapper(t *testing.T) {
	d, err := NewDetector(DetectorConfig{Predictor: "LAST", Margin: "JAC_med", Eta: 100 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Stop()
	for i := int64(0); i < 5; i++ {
		d.Heartbeat(i, time.Now().Add(-2*time.Millisecond))
	}
	d.Heartbeat(2, time.Now()) // one stale duplicate
	s := d.DetectorStats()
	if s.Heartbeats != 6 || s.Stale != 1 {
		t.Errorf("heartbeats = %d (stale %d), want 6 (stale 1)", s.Heartbeats, s.Stale)
	}
}

func TestDetectorRealTimeFlow(t *testing.T) {
	var suspects, trusts atomic.Int64
	const eta = 100 * time.Millisecond
	d, err := NewDetector(DetectorConfig{
		Predictor: "LAST",
		Margin:    "JAC_med",
		Eta:       eta,
		OnSuspect: func(time.Duration) { suspects.Add(1) },
		OnTrust:   func(time.Duration) { trusts.Add(1) },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Stop()
	if d.Name() != "LAST+JAC_med" {
		t.Errorf("name = %q", d.Name())
	}
	// Feed ticker-spaced heartbeats with mildly jittered claimed delays
	// (real scheduling adds its own jitter on top; the adaptive margin
	// must absorb it, and transient mistakes are allowed).
	ticker := time.NewTicker(eta)
	for i := int64(0); i < 8; i++ {
		d.Heartbeat(i, time.Now().Add(-time.Duration(2+i%4)*time.Millisecond))
		<-ticker.C
	}
	ticker.Stop()
	lastSeq := int64(8)
	d.Heartbeat(lastSeq, time.Now().Add(-2*time.Millisecond))
	// A fresh heartbeat always restores trust under LAST (deadline ≈
	// arrival + η + margin, in the future).
	if d.Suspected() {
		t.Error("suspected immediately after a fresh heartbeat")
	}
	hb := d.DetectorStats().Heartbeats
	if hb != 9 {
		t.Errorf("heartbeats = %d, want 9", hb)
	}
	if d.Timeout() <= 0 {
		t.Errorf("timeout = %v, want positive", d.Timeout())
	}
	// Stop feeding: suspicion follows.
	deadline := time.Now().Add(3 * time.Second)
	for !d.Suspected() && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if !d.Suspected() {
		t.Fatal("silence not detected")
	}
	if suspects.Load() == 0 {
		t.Error("OnSuspect not invoked")
	}
	// Resume: trust returns.
	d.Heartbeat(100, time.Now().Add(-2*time.Millisecond))
	if d.Suspected() {
		t.Error("still suspected after fresh heartbeat")
	}
	if trusts.Load() == 0 {
		t.Error("OnTrust not invoked")
	}
}

func TestDetectorCustomPredictorAndMargin(t *testing.T) {
	pred, err := NewPredictor("MEAN")
	if err != nil {
		t.Fatal(err)
	}
	margin, err := NewMargin("CI_low")
	if err != nil {
		t.Fatal(err)
	}
	d, err := NewDetector(DetectorConfig{
		CustomPredictor: pred,
		CustomMargin:    margin,
		Eta:             time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Stop()
	if d.Name() != "MEAN+CI_low" {
		t.Errorf("name = %q", d.Name())
	}
}

func TestAccrualPublicAPI(t *testing.T) {
	a, err := NewAccrual(10, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewAccrual(1, 0); err == nil {
		t.Error("window 1 should fail")
	}
	for i := 0; i < 5; i++ {
		a.Heartbeat()
		time.Sleep(5 * time.Millisecond)
	}
	if a.Suspected(8) {
		t.Error("suspected immediately after heartbeats")
	}
	if a.Phi() < 0 {
		t.Errorf("phi = %v, want non-negative", a.Phi())
	}
}

// freeUDPPorts reserves n distinct loopback UDP ports and releases them,
// so both sides of the harness can be configured with concrete addresses.
func freeUDPPorts(t *testing.T, n int) []string {
	t.Helper()
	addrs := make([]string, 0, n)
	conns := make([]interface{ Close() error }, 0, n)
	for i := 0; i < n; i++ {
		pc, err := stdnet.ListenPacket("udp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		conns = append(conns, pc)
		addrs = append(addrs, pc.LocalAddr().String())
	}
	for _, c := range conns {
		_ = c.Close()
	}
	return addrs
}

func TestUDPMonitorHeartbeaterIntegration(t *testing.T) {
	addrs := freeUDPPorts(t, 2)
	hbAddr, monAddr := addrs[0], addrs[1]

	hb, err := RunHeartbeater(HeartbeaterConfig{
		Listen: hbAddr,
		Remote: monAddr,
		Eta:    25 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer hb.Close()
	mon, err := NewMonitor(monAddr, hbAddr, WithEta(25*time.Millisecond), WithSyncClock())
	if err != nil {
		t.Fatal(err)
	}
	defer mon.Close()

	time.Sleep(500 * time.Millisecond)
	hbCount := mon.DetectorStats().Heartbeats
	if hbCount < 5 {
		t.Errorf("monitor saw %d heartbeats, want several", hbCount)
	}
	if off := mon.ClockOffset(); off < -50*time.Millisecond || off > 50*time.Millisecond {
		t.Errorf("loopback clock offset %v, want ≈0", off)
	}
	// Crash the heartbeater.
	sent := hb.Sent()
	_ = hb.Close()
	deadline := time.Now().Add(3 * time.Second)
	for !mon.Suspected() && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if !mon.Suspected() {
		t.Fatal("heartbeater crash not detected over UDP")
	}
	if sent == 0 {
		t.Error("heartbeater sent nothing")
	}
	// The single-peer monitor is a one-peer cluster: its deadline ran on
	// the monitor's wheel, and the suspicion above is that wheel firing it.
	if st := mon.Stats().Scheduler; st.Fired == 0 {
		t.Errorf("scheduler stats %+v after a suspicion, want a fired deadline", st)
	}
}

// countingEndpoint is a bare transport endpoint standing in for a monitor:
// it counts the heartbeats that reach it and can send control messages.
type countingEndpoint struct {
	net        *transport.UDPNetwork
	snd        neko.Sender
	heartbeats atomic.Int64
}

func (c *countingEndpoint) Receive(m *neko.Message) {
	if m.Type == neko.MsgHeartbeat {
		c.heartbeats.Add(1)
	}
}

func newCountingEndpoint(t *testing.T) *countingEndpoint {
	t.Helper()
	net, err := transport.NewUDPNetwork(transport.UDPConfig{LocalID: multiMonitorID, Listen: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	c := &countingEndpoint{net: net}
	if c.snd, err = net.Attach(multiMonitorID, c); err != nil {
		net.Close()
		t.Fatal(err)
	}
	return c
}

// TestHeartbeaterObeysSetIntervalPerMonitor pins the adaptable-period
// command on the heartbeater's one group: the monitor that sends
// MsgSetInterval gets the new period, whether it is the only member or one
// of two, and the other monitor keeps its η. The heartbeater's goroutines
// are gone once it is closed.
func TestHeartbeaterObeysSetIntervalPerMonitor(t *testing.T) {
	const eta, fast, window = 200 * time.Millisecond, 20 * time.Millisecond, 1400 * time.Millisecond
	for _, remotes := range []int{1, 2} {
		t.Run(fmt.Sprintf("remotes=%d", remotes), func(t *testing.T) {
			mons := make([]*countingEndpoint, remotes)
			addrs := make([]string, remotes)
			for i := range mons {
				mons[i] = newCountingEndpoint(t)
				defer mons[i].net.Close()
				addrs[i] = mons[i].net.LocalAddr().String()
			}
			before := runtime.NumGoroutine()
			hb, err := RunHeartbeater(HeartbeaterConfig{
				Listen: "127.0.0.1:0", Remote: addrs[0], Remotes: addrs[1:], Eta: eta,
			})
			if err != nil {
				t.Fatal(err)
			}
			defer hb.Close()
			for _, m := range mons {
				if err := m.net.AddPeer(udpHeartbeaterID, hb.LocalAddr()); err != nil {
					t.Fatal(err)
				}
			}
			mons[0].snd.Send(&neko.Message{
				From: multiMonitorID, To: udpHeartbeaterID,
				Type: layers.MsgSetInterval, Seq: int64(fast),
			})
			base := make([]int64, remotes)
			for i, m := range mons {
				base[i] = m.heartbeats.Load()
			}
			time.Sleep(window)
			// ~70 at the commanded 20 ms; 7 if the command was dropped.
			if got := mons[0].heartbeats.Load() - base[0]; got < 40 {
				t.Errorf("commanding monitor got %d heartbeats in %v after SetInterval(%v), want at least 40", got, window, fast)
			}
			if remotes == 2 {
				if got := mons[1].heartbeats.Load() - base[1]; got < 5 || got > 9 {
					t.Errorf("other monitor got %d heartbeats in %v, want ~7 (its η is still %v)", got, window, eta)
				}
			}
			if err := hb.Close(); err != nil {
				t.Fatal(err)
			}
			if !waitFor(t, time.Second, func() bool { return runtime.NumGoroutine() <= before }) {
				t.Errorf("%d goroutines after Close, %d before RunHeartbeater", runtime.NumGoroutine(), before)
			}
		})
	}
}

func TestUDPConfigValidationPublic(t *testing.T) {
	if _, err := NewMonitor(":0", ""); err == nil {
		t.Error("missing remote should fail")
	}
	if _, err := RunHeartbeater(HeartbeaterConfig{Listen: ":0", Eta: time.Second}); err == nil {
		t.Error("missing remote should fail")
	}
	if _, err := NewMonitor("127.0.0.1:0", "127.0.0.1:1", WithPredictor("NOPE")); err == nil {
		t.Error("unknown predictor should fail")
	}
	// A non-positive period is an error (it used to divide by zero after
	// opening the socket), and the listen address is left free.
	addr := freeUDPPorts(t, 1)[0]
	for _, eta := range []time.Duration{0, -time.Second} {
		for _, cfg := range []HeartbeaterConfig{
			{Listen: addr, Remote: "127.0.0.1:1", Eta: eta},
			{Listen: addr, Remotes: []string{"127.0.0.1:1", "127.0.0.1:2"}, Eta: eta},
		} {
			if hb, err := RunHeartbeater(cfg); err == nil {
				hb.Close()
				t.Errorf("RunHeartbeater accepted Eta %v", eta)
			}
			pc, err := stdnet.ListenPacket("udp", addr)
			if err != nil {
				t.Fatalf("listen address still held after a rejected Eta %v: %v", eta, err)
			}
			pc.Close()
		}
	}
}

func TestReproduceAccuracyPublic(t *testing.T) {
	rows, err := ReproduceAccuracy(ChannelItalyJapan, 4000, 9)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 5 {
		t.Fatalf("rows = %d, want 5", len(rows))
	}
	for i := 1; i < len(rows); i++ {
		if rows[i-1].MSqErr > rows[i].MSqErr {
			t.Error("rows not sorted")
		}
	}
}

func TestReproduceQoSPublic(t *testing.T) {
	reports, err := ReproduceQoS(QoSOptions{
		Runs:      1,
		NumCycles: 1500,
		MTTC:      150 * time.Second,
		TTR:       15 * time.Second,
		Seed:      4,
		Combos: []Combination{
			{Predictor: "LAST", Margin: "JAC_med"},
			{Predictor: "MEAN", Margin: "CI_high"},
		},
		Baselines: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(reports) != 4 {
		t.Fatalf("reports = %d, want 2 combos + 2 baselines", len(reports))
	}
	for _, r := range reports {
		if r.Crashes == 0 {
			t.Errorf("%s saw no crashes", r.Detector)
		}
		if r.PA < 0 || r.PA > 1 {
			t.Errorf("%s PA = %v out of [0,1]", r.Detector, r.PA)
		}
	}
}

func TestCharacterizeChannelPublic(t *testing.T) {
	c, err := CharacterizeChannel(ChannelItalyJapan, 20000, 3)
	if err != nil {
		t.Fatal(err)
	}
	if c.MeanDelay < 195*time.Millisecond || c.MeanDelay > 220*time.Millisecond {
		t.Errorf("mean delay = %v, want ≈206ms", c.MeanDelay)
	}
	if c.LossRate >= 0.02 {
		t.Errorf("loss = %v, want small", c.LossRate)
	}
	for _, p := range []ChannelPreset{ChannelLAN, ChannelLossyMobile} {
		if _, err := CharacterizeChannel(p, 1000, 3); err != nil {
			t.Errorf("preset %d: %v", p, err)
		}
	}
}

func TestUDPAccrualMonitor(t *testing.T) {
	addrs := freeUDPPorts(t, 2)
	hbAddr, monAddr := addrs[0], addrs[1]

	hb, err := RunHeartbeater(HeartbeaterConfig{
		Listen: hbAddr,
		Remote: monAddr,
		Eta:    20 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer hb.Close()
	mon, err := NewMonitor(monAddr, hbAddr, WithEta(20*time.Millisecond), WithAccrualThreshold(3))
	if err != nil {
		t.Fatal(err)
	}
	defer mon.Close()

	time.Sleep(500 * time.Millisecond)
	hbs := mon.DetectorStats().Heartbeats
	if hbs < 10 {
		t.Errorf("monitor saw %d heartbeats", hbs)
	}
	if mon.Timeout() != 0 {
		t.Errorf("accrual monitor Timeout = %v, want 0", mon.Timeout())
	}
	if mon.Phi() < 0 {
		t.Errorf("phi = %v", mon.Phi())
	}
	_ = hb.Close()
	deadline := time.Now().Add(3 * time.Second)
	for !mon.Suspected() && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if !mon.Suspected() {
		t.Fatal("accrual monitor did not detect the crash")
	}
	if mon.Phi() <= 3 {
		t.Errorf("phi = %v after crash, want above threshold", mon.Phi())
	}
}

func TestUDPAdaptiveIntervalMonitor(t *testing.T) {
	addrs := freeUDPPorts(t, 2)
	hbAddr, monAddr := addrs[0], addrs[1]

	hb, err := RunHeartbeater(HeartbeaterConfig{
		Listen: hbAddr,
		Remote: monAddr,
		Eta:    time.Second, // deliberately slow (1 Hz) for the target
	})
	if err != nil {
		t.Fatal(err)
	}
	defer hb.Close()
	mon, err := NewMonitor(monAddr, hbAddr,
		WithTargetDetection(300*time.Millisecond)) // demands η ≈ 260 ms (≈4 Hz)
	if err != nil {
		t.Fatal(err)
	}
	defer mon.Close()

	// The controller's first evaluation fires after its 10 s period; wait
	// for the commanded interval to take effect by observing a heartbeat
	// rate clearly above the original 1 Hz.
	deadline := time.Now().Add(25 * time.Second)
	sped := false
	for time.Now().Before(deadline) {
		before := mon.DetectorStats().Heartbeats
		time.Sleep(time.Second)
		after := mon.DetectorStats().Heartbeats
		if after-before >= 3 {
			sped = true
			break
		}
	}
	if !sped {
		t.Fatal("heartbeat rate never rose above 1 Hz; adaptive interval not applied")
	}
	if mon.Suspected() {
		t.Error("suspected while adapted heartbeats flow")
	}
	// TargetDetection with accrual must be rejected.
	if _, err := NewMonitor("127.0.0.1:0", hbAddr,
		WithTargetDetection(time.Second), WithAccrualThreshold(8)); err == nil {
		t.Error("TargetDetection + AccrualThreshold should be rejected")
	}
}
