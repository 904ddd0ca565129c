package core

import (
	"fmt"
	"math"
	"sync"
	"time"

	"wanfd/internal/sched"
	"wanfd/internal/sim"
)

// HeartbeatConsumer is the common shape of event-driven failure detectors:
// the paper's freshness-point Detector and the φ-accrual AccrualDetector
// both satisfy it, so the experiment harness can race them side by side.
type HeartbeatConsumer interface {
	// Name identifies the detector in events and reports.
	Name() string
	// OnHeartbeat processes one received heartbeat.
	OnHeartbeat(seq int64, sendTime, now time.Duration)
	// Suspected reports the current boolean output.
	Suspected() bool
	// Stop cancels pending timers.
	Stop()
}

var (
	_ HeartbeatConsumer = (*Detector)(nil)
	_ HeartbeatConsumer = (*AccrualDetector)(nil)
	_ StatsProvider     = (*Detector)(nil)
	_ StatsProvider     = (*AccrualDetector)(nil)
)

// AccrualDetector turns the φ-accrual suspicion level into an event-driven
// boolean detector: after each fresh heartbeat it computes the future
// instant at which φ(t) would cross the threshold — under the normal
// approximation, lastArrival + mean + z·σ of the windowed inter-arrival
// times, z the normal quantile of 1 − 10^{−θ} — and schedules the
// suspicion there. It is the modern (Cassandra/Akka-lineage) comparator
// for the paper's detectors.
type AccrualDetector struct {
	name      string
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

// AccrualDetectorConfig assembles an AccrualDetector.
type AccrualDetectorConfig struct {
	// Name identifies the detector (default "ACCRUAL_<threshold>").
	Name string
	// Threshold is the φ level at which suspicion starts (8 is the
	// common production default; lower is faster and less accurate).
	Threshold float64
	// WindowSize is the inter-arrival window (default 100).
	WindowSize int
	// MinStdMs floors the estimated deviation (0 means 10 ms).
	MinStdMs float64
	// Clock supplies time and timers.
	Clock sim.Clock
	// Listener receives suspicion transitions; may be nil.
	Listener SuspicionListener
}

// NewAccrualDetector validates cfg and builds the detector.
func NewAccrualDetector(cfg AccrualDetectorConfig) (*AccrualDetector, error) {
	if cfg.Threshold <= 0 {
		return nil, fmt.Errorf("core: accrual threshold must be positive, got %v", cfg.Threshold)
	}
	if cfg.Clock == nil {
		return nil, fmt.Errorf("core: accrual detector needs a clock")
	}
	win := cfg.WindowSize
	if win == 0 {
		win = 100
	}
	a, err := NewAccrual(win, cfg.MinStdMs)
	if err != nil {
		return nil, err
	}
	name := cfg.Name
	if name == "" {
		name = fmt.Sprintf("ACCRUAL_%g", cfg.Threshold)
	}
	d := &AccrualDetector{
		name:      name,
		threshold: cfg.Threshold,
		clock:     cfg.Clock,
		listener:  cfg.Listener,
		a:         a,
		hi:        -1,
	}
	// One rearmable timer for the detector's lifetime, re-armed in place
	// at each new crossing instant (O(1) on a timing-wheel clock).
	d.timer = sched.NewTimer(cfg.Clock, d.expire)
	return d, nil
}

// Name returns the detector's identifier.
func (d *AccrualDetector) Name() string { return d.name }

// OnHeartbeat processes a received heartbeat. φ-accrual consumes arrival
// times only (it never reads the send timestamp): fresh heartbeats feed
// the inter-arrival window and re-arm the suspicion; stale or duplicate
// ones are counted and ignored.
func (d *AccrualDetector) OnHeartbeat(seq int64, _ time.Duration, now time.Duration) {
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
			// Stamped on the clock under the mutex, like the suspicion, so
			// a heartbeat stamped before it cannot end it earlier.
			d.listener.OnTrust(d.name, d.clock.Now())
		}
	}
	wait, ok := d.crossingDelay()
	if !ok {
		d.timer.Stop()
		return // not enough history yet: never suspect on a cold window
	}
	d.crossing = now + wait
	d.timer.RescheduleAt(d.crossing+timerSlack, now)
}

// crossingDelay returns how long after the last arrival φ reaches the
// threshold. Callers hold d.mu.
func (d *AccrualDetector) crossingDelay() (time.Duration, bool) {
	mean, std, ok := d.a.interArrivalStats()
	if !ok {
		return 0, false
	}
	p := 1 - math.Pow(10, -d.threshold)
	z := probit(p)
	ms := mean + z*std
	if ms < 0 {
		ms = 0
	}
	return time.Duration(ms * float64(time.Millisecond)), true
}

func (d *AccrualDetector) expire() {
	d.mu.Lock()
	defer d.mu.Unlock()
	now := d.clock.Now()
	if d.stopped || now < d.crossing || d.suspected || !d.haveArrival {
		return
	}
	d.suspected = true
	d.suspicions++
	if d.listener != nil {
		d.listener.OnSuspect(d.name, now)
	}
}

// Suspected reports the current output.
func (d *AccrualDetector) Suspected() bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.suspected
}

// Phi returns the current continuous suspicion level.
func (d *AccrualDetector) Phi() float64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.a.Phi(d.clock.Now())
}

// Stop cancels any pending timer and tears the detector down: subsequent
// heartbeats are ignored.
func (d *AccrualDetector) Stop() {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.stopped = true
	d.timer.Stop()
}

// DetectorStats returns a snapshot of the lifetime counters.
func (d *AccrualDetector) DetectorStats() DetectorStats {
	d.mu.Lock()
	defer d.mu.Unlock()
	return DetectorStats{Heartbeats: d.heartbeats, Stale: d.stale, Suspicions: d.suspicions}
}

// probit is the standard normal quantile function (inverse CDF), computed
// with Acklam's rational approximation (relative error < 1.15e-9) plus one
// Halley refinement step.
func probit(p float64) float64 {
	if p <= 0 {
		return math.Inf(-1)
	}
	if p >= 1 {
		return math.Inf(1)
	}
	// Acklam's coefficients.
	a := [6]float64{-3.969683028665376e+01, 2.209460984245205e+02, -2.759285104469687e+02,
		1.383577518672690e+02, -3.066479806614716e+01, 2.506628277459239e+00}
	b := [5]float64{-5.447609879822406e+01, 1.615858368580409e+02, -1.556989798598866e+02,
		6.680131188771972e+01, -1.328068155288572e+01}
	c := [6]float64{-7.784894002430293e-03, -3.223964580411365e-01, -2.400758277161838e+00,
		-2.549732539343734e+00, 4.374664141464968e+00, 2.938163982698783e+00}
	dd := [4]float64{7.784695709041462e-03, 3.224671290700398e-01, 2.445134137142996e+00,
		3.754408661907416e+00}
	const pLow = 0.02425
	var x float64
	switch {
	case p < pLow:
		q := math.Sqrt(-2 * math.Log(p))
		x = (((((c[0]*q+c[1])*q+c[2])*q+c[3])*q+c[4])*q + c[5]) /
			((((dd[0]*q+dd[1])*q+dd[2])*q+dd[3])*q + 1)
	case p <= 1-pLow:
		q := p - 0.5
		r := q * q
		x = (((((a[0]*r+a[1])*r+a[2])*r+a[3])*r+a[4])*r + a[5]) * q /
			(((((b[0]*r+b[1])*r+b[2])*r+b[3])*r+b[4])*r + 1)
	default:
		q := math.Sqrt(-2 * math.Log(1-p))
		x = -(((((c[0]*q+c[1])*q+c[2])*q+c[3])*q+c[4])*q + c[5]) /
			((((dd[0]*q+dd[1])*q+dd[2])*q+dd[3])*q + 1)
	}
	// One Halley step against the forward CDF.
	e := normalCDF(x) - p
	u := e * math.Sqrt(2*math.Pi) * math.Exp(x*x/2)
	x -= u / (1 + x*u/2)
	return x
}
