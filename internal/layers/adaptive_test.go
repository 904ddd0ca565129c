package layers

import (
	"testing"
	"time"

	"wanfd/internal/core"
	"wanfd/internal/neko"
	"wanfd/internal/sim"
	"wanfd/internal/wan"
)

func TestIntervalControllerValidation(t *testing.T) {
	eng := sim.NewEngine()
	det := newDet(t, eng)
	if _, err := NewIntervalController(IntervalControllerConfig{TargetDetection: time.Second}); err == nil {
		t.Error("nil detector should be rejected")
	}
	if _, err := NewIntervalController(IntervalControllerConfig{Detector: det}); err == nil {
		t.Error("zero target should be rejected")
	}
	if _, err := NewIntervalController(IntervalControllerConfig{
		Detector: det, TargetDetection: time.Second,
		MinEta: time.Second, MaxEta: time.Millisecond,
	}); err == nil {
		t.Error("inverted bounds should be rejected")
	}
}

func newDet(t *testing.T, eng *sim.Engine) *core.Detector {
	t.Helper()
	margin, err := core.NewConstantMargin("M", 50)
	if err != nil {
		t.Fatal(err)
	}
	det, err := core.NewDetector(core.DetectorConfig{
		Predictor: core.NewLast(), Margin: margin, Eta: time.Second, Clock: eng,
	})
	if err != nil {
		t.Fatal(err)
	}
	return det
}

// Closed loop end to end: the controller drives the heartbeater's interval
// toward target − timeout, and the detector's assumed η follows.
func TestIntervalControllerClosedLoop(t *testing.T) {
	eng := sim.NewEngine()
	net, err := neko.NewSimNetwork(eng, func() (*wan.Channel, error) {
		return wan.NewChannel(wan.ChannelConfig{Delay: &wan.ConstantDelay{D: 200 * time.Millisecond}})
	})
	if err != nil {
		t.Fatal(err)
	}
	det := newDet(t, eng)
	mon, err := NewMonitor(det)
	if err != nil {
		t.Fatal(err)
	}
	ctrl, err := NewIntervalController(IntervalControllerConfig{
		Detector:        det,
		TargetDetection: 800 * time.Millisecond,
		Peer:            1,
		Period:          5 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Monitor stack: controller above the monitor (it only sends down).
	monProc, err := neko.NewProcess(2, eng, net, ctrl, mon)
	if err != nil {
		t.Fatal(err)
	}
	hb, err := NewHeartbeaterGroup(time.Second, 2) // starts far too slow for the target
	if err != nil {
		t.Fatal(err)
	}
	hbProc, err := neko.NewProcess(1, eng, net, hb)
	if err != nil {
		t.Fatal(err)
	}
	if err := monProc.Start(); err != nil {
		t.Fatal(err)
	}
	if err := hbProc.Start(); err != nil {
		t.Fatal(err)
	}
	if err := eng.Run(60 * time.Second); err != nil {
		t.Fatal(err)
	}
	hbProc.Stop()
	monProc.Stop()

	if ctrl.Commands() == 0 {
		t.Fatal("controller never commanded an interval")
	}
	// Target 800 ms, timeout ≈ 250 ms (delay 200 + margin 50), slack 80:
	// commanded η ≈ 470 ms.
	want := 800*time.Millisecond - 250*time.Millisecond - 80*time.Millisecond
	got := ctrl.LastCommanded()
	if got < want-100*time.Millisecond || got > want+100*time.Millisecond {
		t.Errorf("commanded interval = %v, want ≈%v", got, want)
	}
	if eta := memberEta(t, hb, 2); eta != got {
		t.Errorf("heartbeater interval %v != commanded %v", eta, got)
	}
	if det.Eta() != got {
		t.Errorf("detector eta %v != commanded %v", det.Eta(), got)
	}
	// With the tightened interval, worst-case detection η + δ meets the
	// target.
	bound := got + time.Duration(det.CurrentTimeout()*float64(time.Millisecond))
	if bound > 800*time.Millisecond {
		t.Errorf("achieved bound %v exceeds target 800ms", bound)
	}
	// The detector must not be suspecting a healthy fast heartbeater.
	if det.Suspected() {
		t.Error("suspected after interval adaptation")
	}
}
