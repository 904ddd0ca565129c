package core

import (
	"math"
	"testing"
	"time"

	"wanfd/internal/sim"
)

func TestProbitKnownQuantiles(t *testing.T) {
	cases := []struct{ p, want float64 }{
		{0.5, 0},
		{0.8413447460685429, 1},
		{0.9772498680518208, 2},
		{0.9986501019683699, 3},
		{0.975, 1.959963984540054},
		{0.025, -1.959963984540054},
		{0.0013498980316301035, -3},
	}
	for _, c := range cases {
		got := probit(c.p)
		if math.Abs(got-c.want) > 1e-8 {
			t.Errorf("probit(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if !math.IsInf(probit(0), -1) || !math.IsInf(probit(1), 1) {
		t.Error("probit edges should be ±Inf")
	}
}

func TestProbitInvertsCDFProperty(t *testing.T) {
	for p := 0.0005; p < 1; p += 0.0137 {
		z := probit(p)
		if back := normalCDF(z); math.Abs(back-p) > 1e-9 {
			t.Fatalf("normalCDF(probit(%v)) = %v", p, back)
		}
	}
}

func TestAccrualDetectorValidation(t *testing.T) {
	eng := sim.NewEngine()
	if _, err := NewAccrualDetector(AccrualDetectorConfig{Clock: eng}); err == nil {
		t.Error("zero threshold should be rejected")
	}
	if _, err := NewAccrualDetector(AccrualDetectorConfig{Threshold: 8}); err == nil {
		t.Error("nil clock should be rejected")
	}
	if _, err := NewAccrualDetector(AccrualDetectorConfig{Threshold: 8, Clock: eng, WindowSize: 1}); err == nil {
		t.Error("window 1 should be rejected")
	}
	d, err := NewAccrualDetector(AccrualDetectorConfig{Threshold: 8, Clock: eng})
	if err != nil {
		t.Fatal(err)
	}
	if d.Name() != "ACCRUAL_8" {
		t.Errorf("default name = %q", d.Name())
	}
}

// accrualScenario drives an accrual detector through a steady stream, a
// crash and a recovery on the simulation engine.
func TestAccrualDetectorLifecycle(t *testing.T) {
	eng := sim.NewEngine()
	l := &recordingListener{}
	d, err := NewAccrualDetector(AccrualDetectorConfig{
		Threshold: 5,
		Clock:     eng,
		Listener:  l,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Steady 1 s heartbeats with ±few ms jitter.
	for seq := int64(0); seq < 60; seq++ {
		send := time.Duration(seq) * time.Second
		jitter := time.Duration(seq%7) * time.Millisecond
		deliver := send + 200*time.Millisecond + jitter
		seq := seq
		eng.At(deliver, func() { d.OnHeartbeat(seq, send, eng.Now()) })
	}
	// Check just after the last arrival (59.2s), before its φ crossing.
	if err := eng.Run(59*time.Second + 400*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if d.Suspected() {
		t.Fatal("suspected during steady stream")
	}
	if d.Phi() < 0 {
		t.Fatal("negative phi")
	}
	// Crash: run far past the last heartbeat.
	if err := eng.Run(120 * time.Second); err != nil {
		t.Fatal(err)
	}
	if !d.Suspected() {
		t.Fatal("crash not detected")
	}
	// Recovery.
	send := 200 * time.Second
	eng.At(send, func() { d.OnHeartbeat(1000, send, eng.Now()) })
	if err := eng.Run(200*time.Second + time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if d.Suspected() {
		t.Error("still suspected after recovery heartbeat")
	}
	st := d.DetectorStats()
	if st.Heartbeats != 61 || st.Stale != 0 {
		t.Errorf("heartbeats/stale = %d/%d, want 61/0", st.Heartbeats, st.Stale)
	}
	if susp := st.Suspicions; susp != 1 {
		t.Errorf("suspicions = %d, want 1", susp)
	}
	if len(l.events) != 2 || !l.events[0].suspect || l.events[1].suspect {
		t.Errorf("events = %+v, want suspect then trust", l.events)
	}
	d.Stop()
}

func TestAccrualDetectorThresholdOrdersDetectionTime(t *testing.T) {
	// A higher threshold waits longer before suspecting (slower, more
	// accurate) — the φ-accrual tuning knob.
	detect := func(threshold float64) time.Duration {
		t.Helper()
		eng := sim.NewEngine()
		l := &recordingListener{}
		d, err := NewAccrualDetector(AccrualDetectorConfig{
			Threshold: threshold, Clock: eng, Listener: l,
		})
		if err != nil {
			t.Fatal(err)
		}
		for seq := int64(0); seq < 30; seq++ {
			send := time.Duration(seq) * time.Second
			jitter := time.Duration(seq%5) * time.Millisecond
			seq := seq
			eng.At(send+200*time.Millisecond+jitter, func() { d.OnHeartbeat(seq, send, eng.Now()) })
		}
		if err := eng.Run(300 * time.Second); err != nil {
			t.Fatal(err)
		}
		d.Stop()
		if len(l.events) == 0 || !l.events[0].suspect {
			t.Fatalf("threshold %v: no suspicion", threshold)
		}
		return l.events[0].at
	}
	t2, t8, t16 := detect(2), detect(8), detect(16)
	if !(t2 < t8 && t8 < t16) {
		t.Errorf("detection times not ordered by threshold: %v %v %v", t2, t8, t16)
	}
}

func TestAccrualDetectorStaleIgnored(t *testing.T) {
	eng := sim.NewEngine()
	d, err := NewAccrualDetector(AccrualDetectorConfig{Threshold: 8, Clock: eng})
	if err != nil {
		t.Fatal(err)
	}
	d.OnHeartbeat(5, 0, time.Second)
	d.OnHeartbeat(3, 0, 2*time.Second) // stale
	if stale := d.DetectorStats().Stale; stale != 1 {
		t.Errorf("stale = %d, want 1", stale)
	}
	d.Stop()
}

func TestAccrualDetectorColdWindowNeverSuspects(t *testing.T) {
	eng := sim.NewEngine()
	l := &recordingListener{}
	d, err := NewAccrualDetector(AccrualDetectorConfig{Threshold: 8, Clock: eng, Listener: l})
	if err != nil {
		t.Fatal(err)
	}
	// A single heartbeat gives no inter-arrival: the detector must stay
	// silent rather than guess.
	d.OnHeartbeat(0, 0, 200*time.Millisecond)
	if err := eng.Run(time.Hour); err != nil {
		t.Fatal(err)
	}
	if d.Suspected() || len(l.events) != 0 {
		t.Errorf("cold-window detector produced output: %+v", l.events)
	}
}

// TestAccrualDetectorTransitionStampsMonotone is
// TestDetectorTransitionStampsMonotone for the φ-accrual detector.
func TestAccrualDetectorTransitionStampsMonotone(t *testing.T) {
	eng := sim.NewEngine()
	l := &recordingListener{}
	d, err := NewAccrualDetector(AccrualDetectorConfig{Threshold: 2, Clock: eng, Listener: l})
	if err != nil {
		t.Fatal(err)
	}
	for seq := int64(0); seq < 10; seq++ {
		send := time.Duration(seq) * time.Second
		seq := seq
		eng.At(send+100*time.Millisecond, func() { d.OnHeartbeat(seq, send, eng.Now()) })
	}
	if err := eng.Run(15 * time.Second); err != nil {
		t.Fatal(err)
	}
	if len(l.events) != 1 || !l.events[0].suspect {
		t.Fatalf("events = %+v, want one suspicion", l.events)
	}
	d.OnHeartbeat(10, 10*time.Second, l.events[0].at-time.Millisecond)
	if len(l.events) != 2 || l.events[1].suspect {
		t.Fatalf("events = %+v, want suspect then trust", l.events)
	}
	if s, tr := l.events[0].at, l.events[1].at; tr < s {
		t.Errorf("trust stamped %v, before the suspicion at %v", tr, s)
	}
}
