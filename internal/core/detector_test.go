package core

import (
	"sync/atomic"
	"testing"
	"time"

	"wanfd/internal/sched"
	"wanfd/internal/sim"
)

type recordedEvent struct {
	suspect bool
	at      time.Duration
}

type recordingListener struct {
	events []recordedEvent
}

func (r *recordingListener) OnSuspect(_ string, at time.Duration) {
	r.events = append(r.events, recordedEvent{suspect: true, at: at})
}

func (r *recordingListener) OnTrust(_ string, at time.Duration) {
	r.events = append(r.events, recordedEvent{suspect: false, at: at})
}

// newTestDetector builds a LAST + 50 ms constant-margin detector on a fresh
// engine: with a constant heartbeat delay its timeout is exactly
// delay + 50 ms, which makes every scenario computable by hand.
func newTestDetector(t *testing.T, eng *sim.Engine) (*Detector, *recordingListener) {
	t.Helper()
	margin, err := NewConstantMargin("M", 50)
	if err != nil {
		t.Fatal(err)
	}
	l := &recordingListener{}
	d, err := NewDetector(DetectorConfig{
		Predictor: NewLast(),
		Margin:    margin,
		Eta:       time.Second,
		Clock:     eng,
		Listener:  l,
	})
	if err != nil {
		t.Fatal(err)
	}
	return d, l
}

// deliver schedules heartbeat seq (sent at seq·η) to arrive after delay.
func deliver(eng *sim.Engine, d *Detector, seq int64, delay time.Duration) {
	send := time.Duration(seq) * time.Second
	eng.At(send+delay, func() {
		d.OnHeartbeat(seq, send, eng.Now())
	})
}

func TestDetectorValidation(t *testing.T) {
	eng := sim.NewEngine()
	margin, _ := NewConstantMargin("M", 0)
	cases := []DetectorConfig{
		{Margin: margin, Eta: time.Second, Clock: eng},                        // no predictor
		{Predictor: NewLast(), Eta: time.Second, Clock: eng},                  // no margin
		{Predictor: NewLast(), Margin: margin, Clock: eng},                    // no eta
		{Predictor: NewLast(), Margin: margin, Eta: -time.Second, Clock: eng}, // negative eta
		{Predictor: NewLast(), Margin: margin, Eta: time.Second, Clock: nil},  // no clock
	}
	for i, cfg := range cases {
		if _, err := NewDetector(cfg); err == nil {
			t.Errorf("config %d should have been rejected", i)
		}
	}
}

func TestDetectorDefaultName(t *testing.T) {
	eng := sim.NewEngine()
	margin, _ := NewSMCI("CI_low", 1)
	d, err := NewDetector(DetectorConfig{
		Predictor: NewLast(), Margin: margin, Eta: time.Second, Clock: eng,
	})
	if err != nil {
		t.Fatal(err)
	}
	if d.Name() != "LAST+CI_low" {
		t.Errorf("default name = %q, want LAST+CI_low", d.Name())
	}
}

func TestDetectorSteadyStreamNeverSuspects(t *testing.T) {
	eng := sim.NewEngine()
	d, l := newTestDetector(t, eng)
	for seq := int64(0); seq < 20; seq++ {
		deliver(eng, d, seq, 100*time.Millisecond)
	}
	// Horizon inside the freshness of the last heartbeat.
	if err := eng.Run(19*time.Second + 200*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if d.Suspected() {
		t.Error("steady stream should never be suspected")
	}
	if len(l.events) != 0 {
		t.Errorf("events = %v, want none", l.events)
	}
	st := d.DetectorStats()
	if st.Heartbeats != 20 || st.Stale != 0 || st.Suspicions != 0 {
		t.Errorf("stats = %d/%d/%d, want 20/0/0", st.Heartbeats, st.Stale, st.Suspicions)
	}
	d.Stop()
}

func TestDetectorCrashDetection(t *testing.T) {
	eng := sim.NewEngine()
	d, l := newTestDetector(t, eng)
	// Heartbeats 0..4 arrive with 100 ms delay; the process then crashes
	// (would have sent seq 5 at t=5s).
	for seq := int64(0); seq < 5; seq++ {
		deliver(eng, d, seq, 100*time.Millisecond)
	}
	if err := eng.Run(30 * time.Second); err != nil {
		t.Fatal(err)
	}
	if !d.Suspected() {
		t.Fatal("crashed process not suspected")
	}
	// Freshness point of seq 4: send(4s) + η(1s) + LAST(100ms) + margin
	// (50ms), checked one instant later (timerSlack).
	want := 5*time.Second + 150*time.Millisecond + time.Nanosecond
	if len(l.events) != 1 || !l.events[0].suspect {
		t.Fatalf("events = %v, want exactly one suspect", l.events)
	}
	if l.events[0].at != want {
		t.Errorf("suspicion at %v, want %v", l.events[0].at, want)
	}
}

func TestDetectorFalseSuspicionAndCorrection(t *testing.T) {
	eng := sim.NewEngine()
	d, l := newTestDetector(t, eng)
	deliver(eng, d, 0, 100*time.Millisecond)
	// Heartbeat 1 is heavily delayed: arrives at 1s + 400ms, after the
	// freshness point 1s+150ms → mistake of duration 250 ms.
	deliver(eng, d, 1, 400*time.Millisecond)
	deliver(eng, d, 2, 100*time.Millisecond)
	if err := eng.Run(2*time.Second + 500*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if d.Suspected() {
		t.Error("should trust again after the late heartbeat")
	}
	if len(l.events) != 2 {
		t.Fatalf("events = %v, want suspect+trust", l.events)
	}
	if !l.events[0].suspect || l.events[0].at != 1*time.Second+150*time.Millisecond+time.Nanosecond {
		t.Errorf("suspect event = %+v, want at 1.15s (+slack)", l.events[0])
	}
	if l.events[1].suspect || l.events[1].at != 1*time.Second+400*time.Millisecond {
		t.Errorf("trust event = %+v, want at 1.4s", l.events[1])
	}
}

func TestDetectorStaleHeartbeatDoesNotRegressFreshness(t *testing.T) {
	eng := sim.NewEngine()
	d, l := newTestDetector(t, eng)
	deliver(eng, d, 0, 100*time.Millisecond)
	deliver(eng, d, 2, 100*time.Millisecond)
	// Heartbeat 1 arrives *after* heartbeat 2 (reordering). It must count
	// as an observation but not move the freshness point backwards.
	send1 := 1 * time.Second
	eng.At(2*time.Second+200*time.Millisecond, func() {
		d.OnHeartbeat(1, send1, eng.Now())
	})
	if err := eng.Run(3 * time.Second); err != nil {
		t.Fatal(err)
	}
	st := d.DetectorStats()
	if st.Heartbeats != 3 || st.Stale != 1 {
		t.Errorf("heartbeats/stale = %d/%d, want 3/1", st.Heartbeats, st.Stale)
	}
	// The gap between seq 0's freshness point (1.15s) and seq 2's arrival
	// (2.1s) is a genuine mistake; the late seq 1 at 2.2s must not add any
	// further transitions.
	if len(l.events) != 2 {
		t.Fatalf("events = %v, want suspect+trust around the gap only", l.events)
	}
	if !l.events[0].suspect || l.events[0].at != 1*time.Second+150*time.Millisecond+time.Nanosecond {
		t.Errorf("suspect event = %+v, want at 1.15s (+slack)", l.events[0])
	}
	if l.events[1].suspect || l.events[1].at != 2*time.Second+100*time.Millisecond {
		t.Errorf("trust event = %+v, want at 2.1s", l.events[1])
	}
}

func TestDetectorLostHeartbeatCoveredByNext(t *testing.T) {
	eng := sim.NewEngine()
	d, l := newTestDetector(t, eng)
	deliver(eng, d, 0, 100*time.Millisecond)
	// seq 1 lost entirely; freshness point of seq 0 is 1.15s, seq 2
	// arrives at 2.1s → a mistake from 1.15s until 2.1s.
	deliver(eng, d, 2, 100*time.Millisecond)
	deliver(eng, d, 3, 100*time.Millisecond)
	if err := eng.Run(3*time.Second + 500*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if len(l.events) != 2 {
		t.Fatalf("events = %v, want suspect+trust", l.events)
	}
	if l.events[0].at != 1*time.Second+150*time.Millisecond+time.Nanosecond {
		t.Errorf("suspect at %v, want 1.15s (+slack)", l.events[0].at)
	}
	if l.events[1].at != 2*time.Second+100*time.Millisecond {
		t.Errorf("trust at %v, want 2.1s", l.events[1].at)
	}
}

func TestDetectorOverdueArrivalKeepsSuspicion(t *testing.T) {
	// With the LAST predictor a fresh heartbeat always restores a future
	// freshness point (deadline = arrival + η + margin), so this scenario
	// needs a slow predictor: MEAN with zero margin. seq 0 arrives with a
	// 100 ms delay; seq 1 arrives 9 s late, pushing the mean to 4550 ms —
	// its freshness point (1s + 1s + 4.55s = 6.55s) is already in the
	// past at arrival (10s), so the suspicion continues uninterrupted.
	eng := sim.NewEngine()
	margin, err := NewConstantMargin("Z", 0)
	if err != nil {
		t.Fatal(err)
	}
	l := &recordingListener{}
	d, err := NewDetector(DetectorConfig{
		Predictor: NewMean(),
		Margin:    margin,
		Eta:       time.Second,
		Clock:     eng,
		Listener:  l,
	})
	if err != nil {
		t.Fatal(err)
	}
	deliver(eng, d, 0, 100*time.Millisecond)
	send1 := 1 * time.Second
	eng.At(10*time.Second, func() {
		d.OnHeartbeat(1, send1, eng.Now())
	})
	if err := eng.Run(11 * time.Second); err != nil {
		t.Fatal(err)
	}
	if !d.Suspected() {
		t.Error("should still be suspected")
	}
	if len(l.events) != 1 || !l.events[0].suspect {
		t.Errorf("events = %v, want a single uninterrupted suspicion", l.events)
	}
	if susp := d.DetectorStats().Suspicions; susp != 1 {
		t.Errorf("suspicions = %d, want 1", susp)
	}
}

func TestDetectorCurrentTimeout(t *testing.T) {
	eng := sim.NewEngine()
	d, _ := newTestDetector(t, eng)
	if got := d.CurrentTimeout(); got != 50 {
		t.Errorf("initial timeout = %v, want margin-only 50", got)
	}
	deliver(eng, d, 0, 200*time.Millisecond)
	if err := eng.Run(time.Second); err != nil {
		t.Fatal(err)
	}
	if got := d.CurrentTimeout(); got != 250 {
		t.Errorf("timeout = %v, want LAST(200)+50", got)
	}
	d.Stop()
}

func TestDetectorRecoveryAfterCrash(t *testing.T) {
	eng := sim.NewEngine()
	d, l := newTestDetector(t, eng)
	// Heartbeats 0..2, crash, then recovery resumes from seq 10 at 10s.
	for seq := int64(0); seq < 3; seq++ {
		deliver(eng, d, seq, 100*time.Millisecond)
	}
	deliver(eng, d, 10, 100*time.Millisecond)
	deliver(eng, d, 11, 100*time.Millisecond)
	if err := eng.Run(11*time.Second + 500*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if d.Suspected() {
		t.Error("recovered process still suspected")
	}
	if len(l.events) != 2 {
		t.Fatalf("events = %v, want suspect (crash) then trust (recovery)", l.events)
	}
	if l.events[1].at != 10*time.Second+100*time.Millisecond {
		t.Errorf("trust at %v, want 10.1s", l.events[1].at)
	}
}

func TestNFDEConstructor(t *testing.T) {
	eng := sim.NewEngine()
	d, err := NewNFDE(100, time.Second, eng, nil)
	if err != nil {
		t.Fatal(err)
	}
	if d.Name() != "NFD-E" {
		t.Errorf("name = %q", d.Name())
	}
	if got := d.CurrentTimeout(); got != 100 {
		t.Errorf("timeout = %v, want constant 100", got)
	}
	if _, err := NewNFDE(-1, time.Second, eng, nil); err == nil {
		t.Error("negative alpha should be rejected")
	}
}

func TestNFDEAlphaForBound(t *testing.T) {
	alpha, err := NFDEAlphaForBound(2*time.Second, time.Second, 200)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(alpha, 800, 1e-9) {
		t.Errorf("alpha = %v, want 800", alpha)
	}
	if _, err := NFDEAlphaForBound(time.Second, time.Second, 200); err == nil {
		t.Error("unattainable bound should be rejected")
	}
}

func TestBertierConstructor(t *testing.T) {
	eng := sim.NewEngine()
	d, err := NewBertier(time.Second, eng, nil)
	if err != nil {
		t.Fatal(err)
	}
	if d.Name() != "Bertier" {
		t.Errorf("name = %q", d.Name())
	}
}

func TestAllCombosComplete(t *testing.T) {
	combos := AllCombos()
	if len(combos) != 30 {
		t.Fatalf("len = %d, want 30", len(combos))
	}
	seen := make(map[string]bool, 30)
	for _, c := range combos {
		if seen[c.Name()] {
			t.Errorf("duplicate combo %q", c.Name())
		}
		seen[c.Name()] = true
		p, m, err := c.Build()
		if err != nil {
			t.Fatalf("build %q: %v", c.Name(), err)
		}
		if p.Name() != c.Predictor {
			t.Errorf("predictor name %q != combo %q", p.Name(), c.Predictor)
		}
		if m.Name() != c.Margin {
			t.Errorf("margin name %q != combo %q", m.Name(), c.Margin)
		}
	}
}

func TestComboBuildUnknown(t *testing.T) {
	if _, _, err := (Combo{Predictor: "NOPE", Margin: "CI_low"}).Build(); err == nil {
		t.Error("unknown predictor should be rejected")
	}
	if _, _, err := (Combo{Predictor: "LAST", Margin: "NOPE"}).Build(); err == nil {
		t.Error("unknown margin should be rejected")
	}
}

func TestNewPredictorByNameAll(t *testing.T) {
	for _, n := range PredictorNames {
		p, err := NewPredictorByName(n)
		if err != nil {
			t.Errorf("%s: %v", n, err)
			continue
		}
		if p.Name() != n {
			t.Errorf("predictor %q reports name %q", n, p.Name())
		}
	}
}

func TestNewMarginByNameAll(t *testing.T) {
	for _, n := range MarginNames {
		m, err := NewMarginByName(n)
		if err != nil {
			t.Errorf("%s: %v", n, err)
			continue
		}
		if m.Name() != n {
			t.Errorf("margin %q reports name %q", n, m.Name())
		}
	}
}

func TestAccrual(t *testing.T) {
	a, err := NewAccrual(10, 0)
	if err != nil {
		t.Fatal(err)
	}
	if a.Phi(time.Second) != 0 {
		t.Error("phi before heartbeats should be 0")
	}
	// Regular 1 s heartbeats.
	for i := 0; i <= 20; i++ {
		a.Heartbeat(time.Duration(i) * time.Second)
	}
	now := 20 * time.Second
	if phi := a.Phi(now + 900*time.Millisecond); phi > 8 {
		t.Errorf("phi just before next expected heartbeat = %v, want small", phi)
	}
	if phi := a.Phi(now + 20*time.Second); phi < 8 {
		t.Errorf("phi long after silence = %v, want large", phi)
	}
	if !a.Suspected(now+20*time.Second, 8) {
		t.Error("should be suspected with threshold 8 after 20 s of silence")
	}
	if a.Suspected(now+500*time.Millisecond, 8) {
		t.Error("should not be suspected half a period in")
	}
}

func TestAccrualMonotoneInTime(t *testing.T) {
	a, err := NewAccrual(5, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i <= 10; i++ {
		a.Heartbeat(time.Duration(i) * time.Second)
	}
	prev := -1.0
	for off := time.Second; off <= 10*time.Second; off += time.Second {
		phi := a.Phi(10*time.Second + off)
		if phi < prev {
			t.Fatalf("phi decreased with silence: %v after %v", phi, off)
		}
		prev = phi
	}
}

func TestAccrualValidation(t *testing.T) {
	if _, err := NewAccrual(1, 0); err == nil {
		t.Error("window 1 should be rejected")
	}
	if _, err := NewAccrual(5, -1); err == nil {
		t.Error("negative minStd should be rejected")
	}
}

func TestDetectorMinTimeoutFloor(t *testing.T) {
	eng := sim.NewEngine()
	margin, err := NewConstantMargin("Z", 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewDetector(DetectorConfig{
		Predictor: NewLast(), Margin: margin, Eta: time.Second, Clock: eng,
		MinTimeout: -time.Second,
	}); err == nil {
		t.Error("negative MinTimeout should be rejected")
	}
	l := &recordingListener{}
	d, err := NewDetector(DetectorConfig{
		Predictor: NewLast(), Margin: margin, Eta: time.Second, Clock: eng,
		Listener: l, MinTimeout: 50 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := d.CurrentTimeout(); got != 50 {
		t.Errorf("initial timeout = %v, want floored 50", got)
	}
	// Constant 10 ms delays with zero margin would make the timeout 10 ms;
	// the floor keeps it at 50 ms, so a heartbeat 40 ms late is tolerated.
	deliver(eng, d, 0, 10*time.Millisecond)
	send1 := 1 * time.Second
	eng.At(send1+45*time.Millisecond, func() {
		d.OnHeartbeat(1, send1, eng.Now())
	})
	if err := eng.Run(2 * time.Second); err != nil {
		t.Fatal(err)
	}
	if len(l.events) != 0 {
		t.Errorf("events = %+v, want none (floor absorbs the lateness)", l.events)
	}
	d.Stop()
}

// TestInitReusesStoppedDetector pins what Init promises about memory that
// holds one detector after another: the second starts clean, and an expiry
// collected for the first — delivered only now, long after — cannot make the
// second suspect, because it has set no deadline of its own yet. A Stop on
// memory Init never completed for is harmless too.
func TestInitReusesStoppedDetector(t *testing.T) {
	eng := sim.NewEngine()
	wheel := sched.NewWheel(sched.Config{Clock: eng})
	defer wheel.Close()
	l := &recordingListener{}
	env, err := NewDetectorEnv(wheel, l, 0)
	if err != nil {
		t.Fatal(err)
	}
	var d Detector
	d.Stop()
	if err := d.Init(DetectorConfig{Predictor: NewLast(), Eta: time.Second, Env: env}); err == nil {
		t.Fatal("Init accepted a config without a margin")
	}
	d.Stop()
	init := func(name string) {
		t.Helper()
		margin, _ := NewConstantMargin("M", 50)
		if err := d.Init(DetectorConfig{Name: name, Predictor: NewLast(), Margin: margin, Eta: time.Second, Env: env}); err != nil {
			t.Fatal(err)
		}
	}
	init("first")
	d.OnHeartbeat(3, 0, 100*time.Millisecond) // deadline 1.15 s
	d.OnHeartbeat(3, 0, 110*time.Millisecond) // stale
	d.Stop()
	init("second")
	if st := d.DetectorStats(); st != (DetectorStats{}) || d.Name() != "second" || d.Suspected() {
		t.Fatalf("re-initialised detector starts as %q %+v, want a clean %q", d.Name(), st, "second")
	}
	if err := eng.Run(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	(*expiry)(&d).Expire()
	if d.Suspected() || len(l.events) != 0 {
		t.Fatalf("an expiry from the previous life suspected the new detector: %+v", l.events)
	}
	// Sequence numbers start over with the detector, and its own deadline
	// still works.
	now := eng.Now()
	d.OnHeartbeat(1, now, now+100*time.Millisecond)
	if err := eng.Run(now + 2*time.Second); err != nil {
		t.Fatal(err)
	}
	want := now + time.Second + 150*time.Millisecond + timerSlack
	if len(l.events) != 1 || !l.events[0].suspect || l.events[0].at != want {
		t.Fatalf("events = %+v, want one suspicion at %v", l.events, want)
	}
}

// TestDetectorServesOneOwner pins the owner check that lets a record's
// memory change hands under a late heartbeat: OnHeartbeatFor feeds the
// detector only while it serves that owner, so a heartbeat addressed to the
// slot's previous occupant — an earlier generation of the same arena index —
// or sent before the slot goes live or after it stops is refused and leaves
// the detector untouched. The last part races a straggler against the hand-over.
func TestDetectorServesOneOwner(t *testing.T) {
	eng := sim.NewEngine()
	wheel := sched.NewWheel(sched.Config{Clock: eng})
	defer wheel.Close()
	env, err := NewDetectorEnv(wheel, &recordingListener{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	var d Detector
	init := func() {
		t.Helper()
		margin, _ := NewConstantMargin("M", 50)
		if err := d.Init(DetectorConfig{Predictor: NewLast(), Margin: margin, Eta: time.Second, Env: env}); err != nil {
			t.Fatal(err)
		}
	}
	// Arena indices of one slot (7) in three lifetimes: the slot number in
	// the high word, an odd generation in the low one.
	const first, second, third = 7<<32 | 1, 7<<32 | 3, 7<<32 | 5
	feed := func(owner uint64, seq int64) bool {
		return d.OnHeartbeatFor(owner, seq, 0, 100*time.Millisecond)
	}
	heartbeats := func() uint64 { return d.DetectorStats().Heartbeats }

	init()
	for _, owner := range []uint64{0, first, second} {
		if feed(owner, 1) {
			t.Errorf("a detector serving no one accepted a heartbeat for %#x", owner)
		}
	}
	d.Serve(first, 0)
	for _, owner := range []uint64{0, second} {
		if feed(owner, 1) {
			t.Errorf("a detector serving %#x accepted a heartbeat for %#x", uint64(first), owner)
		}
	}
	if !feed(first, 1) || heartbeats() != 1 {
		t.Fatalf("a detector serving %#x refused its own heartbeat (%d counted)", uint64(first), heartbeats())
	}
	d.Stop()
	if feed(first, 2) {
		t.Error("a stopped detector accepted a heartbeat for its last owner")
	}

	init()
	for _, owner := range []uint64{first, second} {
		if feed(owner, 1) {
			t.Errorf("a re-initialised detector that serves no one yet accepted a heartbeat for %#x", owner)
		}
	}
	d.Serve(second, 0)
	if feed(first, 2) {
		t.Error("a heartbeat for the slot's earlier generation was accepted")
	}
	if !feed(second, 1) || heartbeats() != 1 {
		t.Fatalf("the next occupant refused its own heartbeat (%d counted)", heartbeats())
	}

	// A straggler for the second lifetime racing its end: whatever it sends
	// once Stop has returned is refused, and the third lifetime sees none of
	// it. Its heartbeats are stale (seq ≤ 1), so they count and arm nothing.
	var stopped atomic.Bool
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 2000; i++ {
			after := stopped.Load()
			if feed(second, 1) && after {
				t.Error("a heartbeat sent after Stop returned was accepted")
				return
			}
		}
	}()
	d.Stop()
	stopped.Store(true)
	init()
	d.Serve(third, 0)
	<-done
	if n := heartbeats(); n != 0 {
		t.Errorf("the third lifetime counted %d of its predecessor's heartbeats", n)
	}
	if !feed(third, 1) || heartbeats() != 1 {
		t.Errorf("the third occupant refused its own heartbeat (%d counted)", heartbeats())
	}

	// The clock offset Serve is given corrects the first heartbeat the
	// detector accepts — LAST then predicts the corrected 140-ms delay, not
	// the raw 100 ms — and reads back; Stop and a re-Init clear it.
	const offset = 40 * time.Millisecond
	d.Stop()
	init()
	d.Serve(first, offset)
	if got := d.ClockOffset(); got != offset {
		t.Errorf("ClockOffset = %v after Serve(_, %v)", got, offset)
	}
	if !feed(first, 1) {
		t.Fatal("a detector served with an offset refused its own heartbeat")
	}
	if got, want := d.CurrentTimeout(), 140.0+50; got != want {
		t.Errorf("timeout after the first heartbeat = %v ms, want %v (delay corrected by %v)", got, want, offset)
	}
	d.Stop()
	if got := d.ClockOffset(); got != 0 {
		t.Errorf("ClockOffset = %v after Stop, want 0", got)
	}
	init()
	if got := d.ClockOffset(); got != 0 {
		t.Errorf("ClockOffset = %v after a re-Init, want 0", got)
	}
}

// TestDetectorTransitionStampsMonotone delivers a heartbeat after the
// detector has suspected, stamped with an arrival before that suspicion —
// a batched reader stamps its drain once and delivers afterwards. The
// trust must not be stamped before the suspicion it ends.
func TestDetectorTransitionStampsMonotone(t *testing.T) {
	eng := sim.NewEngine()
	d, l := newTestDetector(t, eng)
	deliver(eng, d, 0, 100*time.Millisecond) // τ = 1.15 s
	if err := eng.Run(1200 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	d.OnHeartbeat(1, time.Second, 1100*time.Millisecond)
	if len(l.events) != 2 || !l.events[0].suspect || l.events[1].suspect {
		t.Fatalf("events = %+v, want suspect then trust", l.events)
	}
	if s, tr := l.events[0].at, l.events[1].at; tr < s {
		t.Errorf("trust stamped %v, before the suspicion at %v", tr, s)
	}
}
