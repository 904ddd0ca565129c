package core

import (
	"math"
	"sync"
	"testing"
	"time"

	"wanfd/internal/sched"
	"wanfd/internal/sim"
)

// refAccrual is the φ-accrual detector as it stood on its own, before it
// became a predictor and a margin of Detector: its own mutex, stale rule,
// re-armable timer and counters. It is kept, unchanged in behaviour on
// amd64, as the oracle TestAccrualMatchesReference holds the unified
// detector to.
type refAccrual struct {
	threshold float64
	clock     sim.Clock
	listener  SuspicionListener

	mu          sync.Mutex
	a           *Accrual
	hi          int64
	suspected   bool
	stopped     bool
	timer       sched.Rearmable
	crossing    time.Duration
	heartbeats  uint64
	stale       uint64
	suspicions  uint64
	haveArrival bool
}

func newRefAccrual(threshold float64, clock sim.Clock, l SuspicionListener) *refAccrual {
	a, err := NewAccrual(100, 0)
	if err != nil {
		panic(err)
	}
	d := &refAccrual{threshold: threshold, clock: clock, listener: l, a: a, hi: -1}
	d.timer = sched.NewTimer(clock, d.expire)
	return d
}

func (d *refAccrual) OnHeartbeat(seq int64, _ time.Duration, now time.Duration) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.stopped {
		return
	}
	d.heartbeats++
	if seq <= d.hi {
		d.stale++
		return
	}
	d.hi = seq
	d.a.Heartbeat(now)
	d.haveArrival = true
	if d.suspected {
		d.suspected = false
		if d.listener != nil {
			d.listener.OnTrust("ref", d.clock.Now())
		}
	}
	mean, std, ok := d.a.interArrivalStats()
	if !ok {
		d.timer.Stop()
		return
	}
	// The explicit conversion rounds z·σ before the sum, as the unified
	// detector's margin does; without it an FMA-fusing target (arm64) may
	// round the two differently, by up to 1 ns in the stamp.
	ms := mean + float64(probit(1-math.Pow(10, -d.threshold))*std)
	if ms < 0 {
		ms = 0
	}
	d.crossing = now + time.Duration(ms*float64(time.Millisecond))
	d.timer.RescheduleAt(d.crossing+timerSlack, now)
}

func (d *refAccrual) expire() {
	d.mu.Lock()
	defer d.mu.Unlock()
	now := d.clock.Now()
	if d.stopped || now < d.crossing || d.suspected || !d.haveArrival {
		return
	}
	d.suspected = true
	d.suspicions++
	if d.listener != nil {
		d.listener.OnSuspect("ref", now)
	}
}

func (d *refAccrual) Phi() float64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.a.Phi(d.clock.Now())
}

func (d *refAccrual) DetectorStats() DetectorStats {
	d.mu.Lock()
	defer d.mu.Unlock()
	return DetectorStats{Heartbeats: d.heartbeats, Stale: d.stale, Suspicions: d.suspicions}
}

func (d *refAccrual) Stop() {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.stopped = true
	d.timer.Stop()
}

// accrualStep is one generated delivery: heartbeat seq, sent at send,
// handed to the detectors at the engine instant at with the receive stamp
// stamp (at most at: a batched reader stamps its drain before delivering).
type accrualStep struct {
	seq             int64
	send, at, stamp time.Duration
}

// genAccrualSchedule turns bytes into a delivery schedule of n heartbeats at
// η = 100 ms: regular arrivals with jitter, reordered and duplicated
// sequence numbers, sequence gaps, zero inter-arrival bursts, receive stamps
// taken before delivery, and silences long enough to suspect at any of the
// tested thresholds. The first delivery is always a cold window. The bytes
// make the first decisions; a generator seeded from them makes the rest, so
// a short fuzz input still drives a long schedule.
func genAccrualSchedule(data []byte, n int) []accrualStep {
	x := uint64(0x9e3779b97f4a7c15)
	for _, b := range data {
		x = (x ^ uint64(b)) * 0x100000001b3
	}
	pos := 0
	next := func() byte {
		if pos < len(data) {
			pos++
			return data[pos-1]
		}
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		return byte(x >> 56)
	}
	const eta = 100 * time.Millisecond
	steps := make([]accrualStep, 0, n)
	var seq int64
	at := time.Millisecond
	for len(steps) < n {
		b := next()
		switch op := b % 32; {
		case op == 0: // silence: long enough to suspect at θ = 12
			at += time.Duration(1+next()%20) * time.Second
		case op == 1 && seq > 3: // reorder: an older sequence number arrives
			s := seq - 1 - int64(next()%3)
			steps = append(steps, accrualStep{s, time.Duration(s) * eta, at, at})
			continue
		case op == 2 && seq > 0: // duplicate of the freshest heartbeat
			steps = append(steps, accrualStep{seq - 1, time.Duration(seq-1) * eta, at, at})
			continue
		case op == 3: // sequence gap: lost heartbeats
			seq += int64(1 + next()%5)
		case op == 4: // zero inter-arrival burst
			for k := 0; k <= int(next()%4) && len(steps) < n; k++ {
				steps = append(steps, accrualStep{seq, time.Duration(seq) * eta, at, at})
				seq++
			}
			continue
		}
		at += eta + time.Duration(int(next())-128)*100*time.Microsecond
		stamp := at
		if b&0x80 != 0 && len(steps) > 0 {
			// Stamped before delivery, but never before the previous
			// delivery's engine instant.
			if back := time.Duration(next()%50) * time.Millisecond; at-back > steps[len(steps)-1].at {
				stamp = at - back
			}
		}
		steps = append(steps, accrualStep{seq, time.Duration(seq) * eta, at, stamp})
		seq++
	}
	return steps
}

// lastAt is the engine instant of the last delivery (0 before any).
func lastAt(steps []accrualStep) time.Duration {
	if len(steps) == 0 {
		return 0
	}
	return steps[len(steps)-1].at
}

// checkAccrualMatchesReference runs the reference and the unified detector
// side by side on one engine over one schedule and fails on the first
// difference in transitions, stamps, counters or φ.
func checkAccrualMatchesReference(t *testing.T, threshold float64, steps []accrualStep) DetectorStats {
	t.Helper()
	eng := sim.NewEngine()
	var refLog, detLog recordingListener
	ref := newRefAccrual(threshold, eng, &refLog)
	det := newAccrualTestDetector(t, eng, threshold, &detLog)
	for i, s := range steps {
		s := s
		eng.At(s.at, func() {
			ref.OnHeartbeat(s.seq, s.send, s.stamp)
			det.OnHeartbeat(s.seq, s.send, s.stamp)
		})
		if i%97 == 0 {
			eng.At(s.at+time.Duration(i%13)*37*time.Millisecond, func() {
				if r, d := ref.Phi(), det.Phi(); r != d {
					t.Errorf("θ=%v: φ at %v = %v, reference %v", threshold, eng.Now(), d, r)
				}
			})
		}
	}
	if err := eng.Run(lastAt(steps) + time.Minute); err != nil {
		t.Fatal(err)
	}
	ref.Stop()
	det.Stop()
	if r, d := ref.DetectorStats(), det.DetectorStats(); r != d {
		t.Errorf("θ=%v: stats %+v, reference %+v", threshold, d, r)
	}
	if len(refLog.events) != len(detLog.events) {
		t.Errorf("θ=%v: %d transitions, reference %d", threshold, len(detLog.events), len(refLog.events))
	}
	for i := range refLog.events {
		if i >= len(detLog.events) {
			break
		}
		if refLog.events[i] != detLog.events[i] {
			t.Fatalf("θ=%v: transition %d = %+v, reference %+v", threshold, i, detLog.events[i], refLog.events[i])
		}
	}
	return ref.DetectorStats()
}

// newAccrualTestDetector builds the unified φ-accrual detector at threshold
// on clk, with the default window and deviation floor and no timeout floor.
func newAccrualTestDetector(t testing.TB, clk sim.Clock, threshold float64, l SuspicionListener) *Detector {
	t.Helper()
	pred, margin, err := NewAccrualCombo(threshold, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	d, err := NewDetector(DetectorConfig{Predictor: pred, Margin: margin, Eta: time.Second, Clock: clk, Listener: l})
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// accrualThresholds are the thresholds the reference is held to: z > 0 at
// each (θ > log10 2), from the fast end to beyond the production default.
var accrualThresholds = []float64{0.5, 2, 8, 12}

// TestAccrualMatchesReference holds the unified φ-accrual detector to the
// reference over 10^5 generated heartbeats per threshold: identical
// transition kinds and stamps, counters and φ.
func TestAccrualMatchesReference(t *testing.T) {
	for i, th := range accrualThresholds {
		st := checkAccrualMatchesReference(t, th, genAccrualSchedule([]byte{byte(i), 0x5a}, 100_000))
		t.Logf("θ=%v: %+v", th, st)
		// The schedule must exercise what it is meant to: stale
		// heartbeats and suspicions at every threshold.
		if st.Stale < 1000 || st.Suspicions < 100 {
			t.Errorf("θ=%v: schedule too tame: %+v", th, st)
		}
	}
}

func FuzzAccrualMatchesReference(f *testing.F) {
	f.Add([]byte{0}, uint8(1))
	f.Add([]byte{16, 1, 2, 3, 4, 0x80, 0x91, 17, 33}, uint8(2))
	f.Add([]byte{4, 4, 4, 0, 0, 1, 2, 3}, uint8(3))
	f.Fuzz(func(t *testing.T, data []byte, which uint8) {
		th := accrualThresholds[int(which)%len(accrualThresholds)]
		checkAccrualMatchesReference(t, th, genAccrualSchedule(data, 2000))
	})
}
