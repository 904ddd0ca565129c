package layers

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"wanfd/internal/core"
	"wanfd/internal/neko"
	"wanfd/internal/sim"
	"wanfd/internal/wan"
)

type captureLayer struct {
	neko.Base
	got []neko.Message
	// clock, when set, stamps each arrival into at.
	clock sim.Clock
	at    []time.Duration
}

func (c *captureLayer) Receive(m *neko.Message) {
	c.got = append(c.got, *m)
	if c.clock != nil {
		c.at = append(c.at, c.clock.Now())
	}
}

type crashLog struct {
	crashes  []time.Duration
	restores []time.Duration
}

func (c *crashLog) OnCrash(at time.Duration)   { c.crashes = append(c.crashes, at) }
func (c *crashLog) OnRestore(at time.Duration) { c.restores = append(c.restores, at) }

func newNet(t *testing.T, eng *sim.Engine, delay time.Duration) *neko.SimNetwork {
	t.Helper()
	net, err := neko.NewSimNetwork(eng, func() (*wan.Channel, error) {
		return wan.NewChannel(wan.ChannelConfig{Delay: &wan.ConstantDelay{D: delay}})
	})
	if err != nil {
		t.Fatal(err)
	}
	return net
}

func TestSimCrashValidation(t *testing.T) {
	rng := sim.NewRNG(1, "x")
	if _, err := NewSimCrash(0, time.Second, rng, nil); err == nil {
		t.Error("zero MTTC should be rejected")
	}
	if _, err := NewSimCrash(time.Second, 0, rng, nil); err == nil {
		t.Error("zero TTR should be rejected")
	}
	if _, err := NewSimCrash(time.Second, time.Second, nil, nil); err == nil {
		t.Error("nil rng should be rejected")
	}
}

func TestSimCrashCycle(t *testing.T) {
	eng := sim.NewEngine()
	net := newNet(t, eng, time.Millisecond)
	rx := &captureLayer{}
	if _, err := neko.NewProcess(2, eng, net, rx); err != nil {
		t.Fatal(err)
	}
	hb, err := NewHeartbeaterGroup(time.Second, 2)
	if err != nil {
		t.Fatal(err)
	}
	log := &crashLog{}
	crash, err := NewSimCrash(60*time.Second, 10*time.Second, sim.NewRNG(7, "crash"), log)
	if err != nil {
		t.Fatal(err)
	}
	p, err := neko.NewProcess(1, eng, net, hb, crash)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Start(); err != nil {
		t.Fatal(err)
	}
	horizon := 10 * time.Minute
	if err := eng.Run(horizon); err != nil {
		t.Fatal(err)
	}
	p.Stop()

	if len(log.crashes) == 0 {
		t.Fatal("no crashes injected in 10 minutes with MTTC=60s")
	}
	// Crash/restore alternate, restores exactly TTR after crashes.
	for i, r := range log.restores {
		if got := r - log.crashes[i]; got != 10*time.Second {
			t.Errorf("crash %d repaired after %v, want TTR=10s", i, got)
		}
	}
	// Inter-crash times (restore -> next crash) within [MTTC/2, 3MTTC/2].
	for i := 1; i < len(log.crashes); i++ {
		gap := log.crashes[i] - log.restores[i-1]
		if gap < 30*time.Second || gap > 90*time.Second {
			t.Errorf("time-to-crash %v outside [30s, 90s]", gap)
		}
	}
	// No heartbeat was delivered from within a crash period.
	for _, m := range rx.got {
		for i, c := range log.crashes {
			r := horizon
			if i < len(log.restores) {
				r = log.restores[i]
			}
			if m.SentAt >= c && m.SentAt < r {
				t.Errorf("heartbeat sent at %v inside crash period [%v, %v]", m.SentAt, c, r)
			}
		}
	}
	crashes, dropped := crash.Stats()
	if crashes != uint64(len(log.crashes)) {
		t.Errorf("Stats crashes = %d, want %d", crashes, len(log.crashes))
	}
	if dropped == 0 {
		t.Error("expected dropped heartbeats during crash periods")
	}
}

func TestSimCrashDropsUpwardTraffic(t *testing.T) {
	crash, err := NewSimCrash(time.Second, time.Second, sim.NewRNG(1, "c"), nil)
	if err != nil {
		t.Fatal(err)
	}
	top := &captureLayer{}
	crash.SetAbove(top)
	crash.crashed = true
	crash.Receive(&neko.Message{Seq: 1})
	if len(top.got) != 0 {
		t.Error("crashed layer leaked upward traffic")
	}
	crash.crashed = false
	crash.Receive(&neko.Message{Seq: 2})
	if len(top.got) != 1 {
		t.Error("restored layer should pass upward traffic")
	}
}

// logConsumer appends every heartbeat it receives, named and stamped, to a
// log shared with other consumers.
type logConsumer struct {
	name string
	log  *[]string
}

func (c logConsumer) Name() string { return c.name }
func (c logConsumer) OnHeartbeat(seq int64, _, now time.Duration) {
	*c.log = append(*c.log, fmt.Sprintf("%s:%d@%v", c.name, seq, now))
}
func (c logConsumer) Suspected() bool { return false }
func (c logConsumer) Stop()           {}

// TestMonitorFansOut checks the Monitor's fan-out: every heartbeat reaches
// each detector in registration order with one receive stamp, from Receive
// and ReceiveAt alike, and other messages pass up untouched.
func TestMonitorFansOut(t *testing.T) {
	eng := sim.NewEngine()
	var log []string
	mon, err := NewConsumerMonitor(logConsumer{"a", &log}, logConsumer{"b", &log}, logConsumer{"c", &log})
	if err != nil {
		t.Fatal(err)
	}
	top := &captureLayer{}
	mon.SetAbove(top)
	if err := mon.Init(&neko.Context{ID: 2, Clock: eng}); err != nil {
		t.Fatal(err)
	}
	eng.At(100*time.Millisecond, func() {
		mon.Receive(&neko.Message{Type: neko.MsgHeartbeat, Seq: 1})
		mon.Receive(&neko.Message{Type: neko.MsgUser, Seq: 9})
	})
	if err := eng.RunAll(); err != nil {
		t.Fatal(err)
	}
	mon.ReceiveAt(&neko.Message{Type: neko.MsgHeartbeat, Seq: 2}, 250*time.Millisecond)
	if got, want := strings.Join(log, " "), "a:1@100ms b:1@100ms c:1@100ms a:2@250ms b:2@250ms c:2@250ms"; got != want {
		t.Errorf("heartbeats reached the detectors as\n%s\nwant\n%s", got, want)
	}
	if len(top.got) != 1 || top.got[0].Seq != 9 {
		t.Errorf("non-heartbeat not passed up: %v", top.got)
	}
}

func TestMonitorFeedsDetector(t *testing.T) {
	eng := sim.NewEngine()
	margin, err := core.NewConstantMargin("M", 50)
	if err != nil {
		t.Fatal(err)
	}
	det, err := core.NewDetector(core.DetectorConfig{
		Predictor: core.NewLast(),
		Margin:    margin,
		Eta:       time.Second,
		Clock:     eng,
	})
	if err != nil {
		t.Fatal(err)
	}
	mon, err := NewMonitor(det)
	if err != nil {
		t.Fatal(err)
	}
	if err := mon.Init(&neko.Context{ID: 2, Clock: eng}); err != nil {
		t.Fatal(err)
	}
	eng.At(100*time.Millisecond, func() {
		mon.Receive(&neko.Message{Type: neko.MsgHeartbeat, Seq: 0, SentAt: 0})
	})
	if err := eng.Run(500 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	hb := det.DetectorStats().Heartbeats
	if hb != 1 {
		t.Errorf("detector heartbeats = %d, want 1", hb)
	}
	mon.Stop()
}

func TestMonitorPassesNonHeartbeatUp(t *testing.T) {
	eng := sim.NewEngine()
	margin, _ := core.NewConstantMargin("M", 0)
	det, err := core.NewDetector(core.DetectorConfig{
		Predictor: core.NewLast(), Margin: margin, Eta: time.Second, Clock: eng,
	})
	if err != nil {
		t.Fatal(err)
	}
	mon, err := NewMonitor(det)
	if err != nil {
		t.Fatal(err)
	}
	top := &captureLayer{}
	mon.SetAbove(top)
	if err := mon.Init(&neko.Context{ID: 2, Clock: eng}); err != nil {
		t.Fatal(err)
	}
	mon.Receive(&neko.Message{Type: neko.MsgUser, Seq: 9})
	if len(top.got) != 1 || top.got[0].Seq != 9 {
		t.Errorf("non-heartbeat not passed up: %v", top.got)
	}
}

func TestMonitorValidation(t *testing.T) {
	if _, err := NewMonitor(nil); err == nil {
		t.Error("nil detector should be rejected")
	}
	if _, err := NewConsumerMonitor(); err == nil {
		t.Error("a monitor without detectors should be rejected")
	}
	if _, err := NewConsumerMonitor(logConsumer{"a", new([]string)}, nil); err == nil {
		t.Error("nil detector among several should be rejected")
	}
}

func TestDelayRecorder(t *testing.T) {
	if _, err := NewDelayRecorder(nil); err == nil {
		t.Error("nil callback should be rejected")
	}
	eng := sim.NewEngine()
	var delays []time.Duration
	rec, err := NewDelayRecorder(func(_ int64, d time.Duration) { delays = append(delays, d) })
	if err != nil {
		t.Fatal(err)
	}
	top := &captureLayer{}
	rec.SetAbove(top)
	if err := rec.Init(&neko.Context{ID: 2, Clock: eng}); err != nil {
		t.Fatal(err)
	}
	eng.At(150*time.Millisecond, func() {
		rec.Receive(&neko.Message{Type: neko.MsgHeartbeat, Seq: 0, SentAt: 0})
	})
	if err := eng.RunAll(); err != nil {
		t.Fatal(err)
	}
	if len(delays) != 1 || delays[0] != 150*time.Millisecond {
		t.Errorf("delays = %v, want [150ms]", delays)
	}
	if len(top.got) != 1 {
		t.Error("recorder must forward the message upward")
	}
}

// End-to-end: heartbeater + simcrash over a WAN channel into one monitor
// feeding two detectors; the crash is detected by both.
func TestEndToEndCrashDetection(t *testing.T) {
	eng := sim.NewEngine()
	net, err := neko.NewSimNetwork(eng, nil)
	if err != nil {
		t.Fatal(err)
	}
	ch, err := wan.NewPresetChannel(wan.PresetItalyJapan, 99, "e2e")
	if err != nil {
		t.Fatal(err)
	}
	net.SetChannel(1, 2, ch)

	log := &crashLog{}
	hb, err := NewHeartbeaterGroup(time.Second, 2)
	if err != nil {
		t.Fatal(err)
	}
	crash, err := NewSimCrash(300*time.Second, 30*time.Second, sim.NewRNG(99, "crash"), log)
	if err != nil {
		t.Fatal(err)
	}
	monitored, err := neko.NewProcess(1, eng, net, hb, crash)
	if err != nil {
		t.Fatal(err)
	}

	var dets []*core.Detector
	var consumers []core.HeartbeatConsumer
	for _, combo := range []core.Combo{
		{Predictor: "LAST", Margin: "JAC_med"},
		{Predictor: "MEAN", Margin: "CI_low"},
	} {
		pred, margin, err := combo.Build()
		if err != nil {
			t.Fatal(err)
		}
		det, err := core.NewDetector(core.DetectorConfig{
			Name: combo.Name(), Predictor: pred, Margin: margin,
			Eta: time.Second, Clock: eng,
		})
		if err != nil {
			t.Fatal(err)
		}
		dets = append(dets, det)
		consumers = append(consumers, det)
	}
	mon, err := NewConsumerMonitor(consumers...)
	if err != nil {
		t.Fatal(err)
	}
	monitorProc, err := neko.NewProcess(2, eng, net, mon)
	if err != nil {
		t.Fatal(err)
	}
	if err := monitorProc.Start(); err != nil {
		t.Fatal(err)
	}
	if err := monitored.Start(); err != nil {
		t.Fatal(err)
	}
	// Run until just after the first crash.
	if err := eng.Run(480 * time.Second); err != nil {
		t.Fatal(err)
	}
	if len(log.crashes) == 0 {
		t.Fatal("no crash injected within 8 minutes (MTTC=300s)")
	}
	monitored.Stop()
	monitorProc.Stop()
	for _, det := range dets {
		if det.DetectorStats().Suspicions == 0 {
			t.Errorf("detector %s never suspected despite a crash", det.Name())
		}
	}
}
