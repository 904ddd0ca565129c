package core

import (
	"fmt"
	"sync"
	"time"

	"wanfd/internal/sched"
	"wanfd/internal/sim"
	"wanfd/internal/store"
	"wanfd/internal/telemetry"
)

// DetectorStats is a snapshot of a detector's lifetime counters.
type DetectorStats struct {
	// Heartbeats is the number of heartbeats processed (including stale
	// ones).
	Heartbeats uint64
	// Stale is how many of those were reordered or duplicate.
	Stale uint64
	// Suspicions is the number of suspicion episodes started.
	Suspicions uint64
}

// StatsProvider is implemented by detectors that expose lifetime counters:
// the one Detector, whatever its predictor and margin.
type StatsProvider interface {
	DetectorStats() DetectorStats
}

// HeartbeatConsumer is the shape of an event-driven failure detector, the
// unit layers.Monitor feeds heartbeats to. Detector is the only one in the
// product; the interface stays for the benchmark's stage ledger, which wraps
// a Detector to time it.
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
	_ StatsProvider     = (*Detector)(nil)
)

// SuspicionListener receives the detector's output transitions. Callbacks
// are invoked with the detector's name and the clock time of the
// transition, while the detector's lock is held — listeners must not call
// back into the detector.
type SuspicionListener interface {
	// OnSuspect is called when the detector starts suspecting the
	// monitored process.
	OnSuspect(detector string, at time.Duration)
	// OnTrust is called when the detector stops suspecting.
	OnTrust(detector string, at time.Duration)
}

// DetectorEnv is what every detector of a fleet has in common — clock,
// transition listener, timeout floor — held once and referenced by all of
// them through DetectorConfig.Env.
type DetectorEnv struct {
	clock      sim.Clock
	listener   SuspicionListener
	minTimeout float64 // ms
}

// NewDetectorEnv validates and builds the shared part; the arguments are
// DetectorConfig's Clock, Listener and MinTimeout.
func NewDetectorEnv(clock sim.Clock, listener SuspicionListener, minTimeout time.Duration) (*DetectorEnv, error) {
	if clock == nil {
		return nil, fmt.Errorf("core: detector needs a clock")
	}
	if minTimeout < 0 {
		return nil, fmt.Errorf("core: detector needs a non-negative MinTimeout, got %v", minTimeout)
	}
	return &DetectorEnv{clock: clock, listener: listener, minTimeout: durToMs(minTimeout)}, nil
}

// DetectorConfig assembles a Detector.
type DetectorConfig struct {
	// Name identifies the detector in events and reports
	// (e.g. "ARIMA+CI_low"); empty means the predictor's and the margin's
	// names joined by "+".
	Name string
	// Predictor forecasts heartbeat delays; nil means the one
	// Combo.Predictor names. The detector keeps and updates the object.
	Predictor Predictor
	// Margin is the safety margin added to the forecast; nil means the one
	// Combo.Margin names. The detector keeps and updates the object, except
	// a *ConstantMargin, whose constant it copies.
	Margin SafetyMargin
	// Combo names the paper's predictor and margin for whichever of
	// Predictor and Margin is nil, with their Table 1 and 2 parameters.
	// LAST, MEAN and LPF and the six margins so named keep their state in
	// the detector itself, with no object of their own; any other name is
	// built by NewPredictorByName.
	Combo Combo
	// Eta is the heartbeat sending period η.
	Eta time.Duration
	// Clock supplies time and timers (virtual or real).
	Clock sim.Clock
	// Listener receives suspicion transitions; may be nil.
	Listener SuspicionListener
	// MinTimeout, when positive, floors the adaptive timeout δ. The
	// paper's detectors have no floor (and the experiments use none);
	// real deployments want one to ride out the bootstrap phase, when
	// one observation makes the margins near zero while sender timer
	// jitter is not yet learned.
	MinTimeout time.Duration
	// Env, when non-nil, stands in for Clock, Listener and MinTimeout,
	// which are then ignored.
	Env *DetectorEnv
	// Metrics, when non-nil, receives the delay and prediction-error
	// histogram observations plus the late-arrival count from the
	// heartbeat hot path, and every output transition (its event ring
	// entry and accuracy window), before Listener; state the detector
	// tracks anyway (lifetime counters, timeout, output) is read at scrape
	// time, with the bundle (Detector.Metrics), by the collector of
	// whoever wires the detector up. A nil bundle disables instrumentation
	// at the cost of one branch per heartbeat.
	Metrics *telemetry.DetectorMetrics
	// Sample, when non-nil, receives every heartbeat observation (stale
	// ones included — they are delay observations too) and every output
	// transition, after Metrics and before Listener, for the durable QoS
	// store. The recorder's push is a bounded lock-free ring write: zero
	// allocations, never blocking, so the tap costs the hot path one
	// branch when disabled and one ring push when enabled.
	Sample *store.PeerRecorder
}

// Detector is the paper's modular push-style failure detector (§2.3): it
// consumes the heartbeat stream of one monitored process and maintains a
// freshness point
//
//	τ_{k+1} = σ_k + η + pred_{k+1} + sm_{k+1}
//
// (σ_k the send time of the freshest heartbeat received). The monitored
// process is suspected whenever the clock passes the freshness point before
// a fresher heartbeat arrives; a fresher heartbeat that restores a future
// freshness point ends the suspicion. With an arrival-anchored predictor
// (φ-accrual, NewAccrualCombo) the freshness point is A_k + pred + sm, A_k
// the freshest heartbeat's arrival; a timeout of 0 there suspects at that
// arrival.
//
// A Detector is safe for concurrent use (heartbeats may arrive from a
// network goroutine while timers fire on another). It is built by
// NewDetector, or in place by Init when it is a field of a larger record;
// there it serves one owner at a time (Serve, OnHeartbeatFor).
//
// The paper's fixed-size kinds keep their state in the Detector itself: the
// predictors LAST, MEAN and LPF(1/8) and the margins SM_CI γ ∈ {1, 2, 3.31},
// SM_JAC φ ∈ {1, 2, 4} named through DetectorConfig.Combo, and any constant
// margin. A predictor or margin given as an object — ARIMA, WINMEAN,
// MEDIAN, φ-accrual, swept or user-supplied parameters — sits behind one
// pointer to a pair on the heap.
type Detector struct {
	name    string
	eta     time.Duration
	env     *DetectorEnv
	metrics *telemetry.DetectorMetrics
	sample  *store.PeerRecorder
	// ps and ms are the state of an inline predictor and margin, tagged by
	// pk and mk; ext holds the objects of any others.
	ps  predState
	ms  marginState
	ext *external

	mu       sync.Mutex
	hi       int64 // highest sequence received; -1 before the first
	deadline time.Duration
	timer    sched.Rearmable
	// wheelTimer is timer itself when the clock is a timing wheel.
	wheelTimer sched.Timer
	suspected  bool
	stopped    bool
	pk         predKind
	mk         marginKind
	// owner is the token of the record this detector serves (Serve); 0
	// from Init until Serve and again from Stop.
	owner uint64
	// offset is the clock offset served with owner, subtracted from every
	// send stamp; 0 whenever owner is.
	offset time.Duration

	heartbeats uint64
	stale      uint64
	suspicions uint64
}

// external is the predictor and the margin a Detector keeps as objects;
// the side kept inline is nil.
type external struct {
	pred   Predictor
	margin SafetyMargin
}

// timerSlack delays the freshness-expiry check by one instant past τ, so a
// heartbeat arriving exactly at the freshness point counts as fresh (§2.3:
// p suspects if no fresh message was received *by* τ). The canonical
// definition (and the full rationale) lives in the shared scheduler
// package; this alias keeps the detectors on the single source of truth.
const timerSlack = sched.TimerSlack

// NewDetector validates cfg and builds a detector. Before the first
// heartbeat the detector does not suspect (it has no information yet — the
// paper's runs likewise begin measuring after the stream is established).
func NewDetector(cfg DetectorConfig) (*Detector, error) {
	d := new(Detector)
	if err := d.Init(cfg); err != nil {
		return nil, err
	}
	return d, nil
}

// Init is NewDetector on memory the caller owns: d is the zero Detector or
// one that has been stopped. It never overwrites the mutex or the timer
// handle, so memory reused for one detector after another stays safe to
// reach late: an expiry addressed to an earlier detector finds, under the
// mutex, a stopped detector or a later one whose own state decides (an
// expiry suspects only once a deadline this detector set has passed), and a
// heartbeat addressed to an earlier owner finds one it does not serve (see
// OnHeartbeatFor).
func (d *Detector) Init(cfg DetectorConfig) error {
	if (cfg.Predictor == nil && cfg.Combo.Predictor == "") || (cfg.Margin == nil && cfg.Combo.Margin == "") {
		return fmt.Errorf("core: detector %q needs a predictor and a margin", cfg.Name)
	}
	if cfg.Eta <= 0 {
		return fmt.Errorf("core: detector %q needs a positive eta, got %v", cfg.Name, cfg.Eta)
	}
	env := cfg.Env
	if env == nil {
		var err error
		if env, err = NewDetectorEnv(cfg.Clock, cfg.Listener, cfg.MinTimeout); err != nil {
			return fmt.Errorf("detector %q: %w", cfg.Name, err)
		}
	}
	pk, predName, pred, err := resolvePredictor(cfg.Predictor, cfg.Combo.Predictor)
	if err != nil {
		return err
	}
	mk, marginName, ms, margin, err := resolveMargin(cfg.Margin, cfg.Combo.Margin)
	if err != nil {
		return err
	}
	var ext *external
	if pred != nil || margin != nil {
		ext = &external{pred: pred, margin: margin}
	}
	name := cfg.Name
	if name == "" {
		name = predName + "+" + marginName
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	d.name, d.eta = name, cfg.Eta
	d.ps, d.ms, d.ext, d.pk, d.mk = predState{}, ms, ext, pk, mk
	d.env, d.metrics, d.sample = env, cfg.Metrics, cfg.Sample
	d.hi, d.deadline, d.suspected, d.stopped, d.owner, d.offset = -1, 0, false, false, 0, 0
	d.heartbeats, d.stale, d.suspicions = 0, 0, 0
	// One rearmable timer for the detector's lifetime: on a timing-wheel
	// clock each freshness point is an O(1) in-place re-arm instead of a
	// stop-and-recreate AfterFunc per heartbeat.
	if w, ok := env.clock.(*sched.Wheel); ok {
		d.timer = d.wheelTimer.Bind(w, (*expiry)(d))
	} else {
		d.timer = sched.NewTimer(env.clock, d.expire)
	}
	return nil
}

// resolvePredictor tags a detector's predictor: the object p when there is
// one (the caller's, kept), else the one named, inline when it is one of the
// fixed-size kinds and built otherwise.
func resolvePredictor(p Predictor, name string) (predKind, string, Predictor, error) {
	if p != nil {
		if _, ok := p.(*accrualWindow); ok {
			return predAccrual, p.Name(), p, nil
		}
		return predExt, p.Name(), p, nil
	}
	if k := predKindOf(name); k != predExt {
		return k, name, nil, nil
	}
	p, err := NewPredictorByName(name)
	return predExt, name, p, err
}

// resolveMargin is resolvePredictor for the margin, with a constant margin
// copied inline; every named margin is one of the fixed-size kinds.
func resolveMargin(m SafetyMargin, name string) (marginKind, string, marginState, SafetyMargin, error) {
	switch c := m.(type) {
	case nil:
	case *ConstantMargin:
		return marginConst, c.name, marginState{v: c.ms}, nil, nil
	default:
		return marginExt, m.Name(), marginState{}, m, nil
	}
	if k := marginKindOf(name); k != marginExt {
		return k, name, marginState{}, nil, nil
	}
	return 0, "", marginState{}, nil, fmt.Errorf("core: unknown safety margin %q", name)
}

// expiry is the Detector as its wheel timer's handler: no closure, as a
// d.expire method value would allocate, and no Expire in its method set.
type expiry Detector

func (e *expiry) Expire() { (*Detector)(e).expire() }

// Name returns the detector's identifier.
func (d *Detector) Name() string { return d.name }

// Metrics returns the telemetry bundle Init gave the detector (nil without
// one).
func (d *Detector) Metrics() *telemetry.DetectorMetrics { return d.metrics }

// OnHeartbeat processes heartbeat number seq, sent at sendTime and received
// now (both on the shared synchronized time base, per the paper's NTP
// assumption). Every received heartbeat — including stale, reordered or
// duplicate ones — contributes a delay observation; only heartbeats fresher
// than any seen so far advance the freshness point.
func (d *Detector) OnHeartbeat(seq int64, sendTime, now time.Duration) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.heartbeatLocked(seq, sendTime, now)
}

// Serve makes the detector accept OnHeartbeatFor(owner, …) until Stop or
// the next Init, subtracting offset, the peer-minus-local clock offset, from
// every send stamp from the first. owner is a non-zero token naming one
// lifetime of the memory the detector sits in — a peer monitor uses its
// record's arena index — so a heartbeat addressed to an earlier lifetime is
// refused.
func (d *Detector) Serve(owner uint64, offset time.Duration) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.owner, d.offset = owner, offset
}

// ClockOffset returns the clock offset the detector was served with.
func (d *Detector) ClockOffset() time.Duration {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.offset
}

// OnHeartbeatFor is OnHeartbeat for a caller that reached the detector
// through memory that may have changed hands: it feeds the heartbeat and
// reports true only while the detector serves owner (Serve), and otherwise
// leaves the detector untouched.
func (d *Detector) OnHeartbeatFor(owner uint64, seq int64, sendTime, now time.Duration) bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	if owner == 0 || owner != d.owner {
		return false
	}
	d.heartbeatLocked(seq, sendTime, now)
	return true
}

// heartbeatLocked is the one heartbeat update. Callers hold d.mu.
func (d *Detector) heartbeatLocked(seq int64, sendTime, now time.Duration) {
	if d.stopped {
		// Torn down (e.g. the peer was removed from a cluster monitor):
		// a straggler packet must not re-arm timers on a dead detector.
		return
	}
	sendTime -= d.offset
	d.heartbeats++
	obsMs := durToMs(now - sendTime)
	predMs := d.predictLocked() // the prediction that was in effect
	d.observeLocked(obsMs, predMs)
	if m := d.metrics; m != nil {
		// Multiply, not divide: ms→s by a constant reciprocal keeps the
		// conversion off the FP-divider on every heartbeat.
		m.Delay.Observe(obsMs * 1e-3)
		if d.heartbeats > 1 && d.pk != predAccrual {
			// The first prediction is the predictor's zero state, not a
			// forecast; scoring it would just record the first delay. An
			// arrival-anchored forecast is an inter-arrival, not a delay.
			err := obsMs - predMs
			if err < 0 {
				err = -err
			}
			m.PredictorError.Observe(err * 1e-3)
		}
		if d.suspected {
			m.Late.Inc()
		}
	}
	if r := d.sample; r != nil {
		r.Sample(seq, sendTime, now)
	}

	if seq <= d.hi {
		d.stale++
		return
	}
	d.hi = seq

	deadline := sendTime + d.eta
	if d.pk == predAccrual {
		if !d.ext.pred.(*accrualWindow).arrive(now) {
			// No forecast on a cold window: arm nothing, never suspect.
			d.timer.Stop()
			return
		}
		deadline = now
	}
	deadline += msToDur(d.timeoutLocked())
	d.deadline = deadline
	if deadline > now {
		if d.suspected {
			d.transitionLocked(false, d.env.clock.Now())
		}
		// The paper's freshness semantics count a heartbeat arriving
		// exactly at τ as fresh (received "by" the freshness point), so
		// the expiry check runs an instant after τ — otherwise, in the
		// simulator's FIFO event order, a deadline tied with an arrival
		// would suspect first.
		// Absolute re-arm against the receive stamp already in hand: on the
		// batched ingest path one clock read per drain batch covers every
		// deadline it re-arms, instead of a second read inside the wheel.
		d.timer.RescheduleAt(deadline+timerSlack, now)
		return
	}
	// Even the next expected heartbeat is already overdue: suspicion
	// stands (or starts) without an intervening trust.
	d.timer.Stop()
	if !d.suspected {
		d.transitionLocked(true, d.env.clock.Now())
	}
}

// transitionLocked flips the output at now and reports it to the
// detector's own taps — telemetry, then the store — and then to the
// listener. Callers hold d.mu and read now from the detector's clock under
// it, not from a heartbeat's receive stamp: a reader stamps its drain batch
// before delivering it, and an expiry may have suspected in between.
// Reading under the mutex makes one detector's transition stamps
// non-decreasing.
func (d *Detector) transitionLocked(suspected bool, now time.Duration) {
	d.suspected = suspected
	if suspected {
		d.suspicions++
	}
	d.metrics.Transition(suspected, now)
	d.sample.Transition(suspected, now)
	switch l := d.env.listener; {
	case l == nil:
	case suspected:
		l.OnSuspect(d.name, now)
	default:
		l.OnTrust(d.name, now)
	}
}

// expire fires when the freshness point passes without a fresher heartbeat.
func (d *Detector) expire() {
	d.mu.Lock()
	defer d.mu.Unlock()
	now := d.env.clock.Now()
	if d.stopped || d.hi < 0 || now < d.deadline || d.suspected {
		// A fresher heartbeat moved the deadline between the timer firing
		// and acquiring the lock (real-time race), the detector was torn
		// down, we already suspect — or this detector has set no deadline
		// yet and the expiry was an earlier one's (see Init).
		return
	}
	d.transitionLocked(true, now)
}

// Suspected reports the detector's current output: true if the monitored
// process is suspected.
func (d *Detector) Suspected() bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.suspected
}

// CurrentTimeout returns the timeout δ = pred + sm (in milliseconds) that
// would govern the next freshness point; for φ-accrual, mean + z·σ of the
// windowed inter-arrival times.
func (d *Detector) CurrentTimeout() float64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.timeoutLocked()
}

// Phi returns the φ-accrual suspicion level at the clock's current time, or
// 0 for a detector whose predictor is not φ-accrual's.
func (d *Detector) Phi() float64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.pk == predAccrual {
		return d.ext.pred.(*accrualWindow).a.Phi(d.env.clock.Now())
	}
	return 0
}

// predictLocked is the predictor's forecast in milliseconds. Callers hold
// d.mu.
func (d *Detector) predictLocked() float64 {
	if d.pk >= predLast {
		return d.ps.v
	}
	return d.ext.pred.Predict()
}

// marginLocked is the margin in milliseconds, with an inline margin's
// scale from Table 1 by its tag. Callers hold d.mu.
func (d *Detector) marginLocked() float64 {
	switch k := d.mk; {
	case k == marginExt:
		return d.ext.margin.Margin()
	case k == marginConst:
		return d.ms.v
	case k.isCI():
		return d.ms.ci(marginScale[k])
	default:
		return d.ms.jac(marginScale[k])
	}
}

// observeLocked feeds one delay and the prediction that was in effect for
// it to the predictor and the margin. Callers hold d.mu.
func (d *Detector) observeLocked(obsMs, predMs float64) {
	switch d.pk {
	case predLast:
		d.ps.observeLast(obsMs)
	case predMean:
		d.ps.observeMean(obsMs)
	case predLPF:
		d.ps.observeLPF(LPFBeta, obsMs)
	default:
		d.ext.pred.Observe(obsMs)
	}
	switch k := d.mk; {
	case k == marginExt:
		d.ext.margin.Observe(obsMs, predMs)
	case k.isCI():
		d.ms.observeCI(obsMs)
	case k.isJAC():
		d.ms.observeJAC(JacobsonAlpha, obsMs, predMs)
	}
}

// timeoutLocked is δ = pred + sm in milliseconds, floored. Callers hold
// d.mu.
func (d *Detector) timeoutLocked() float64 {
	t := d.predictLocked() + d.marginLocked()
	if t < d.env.minTimeout {
		t = d.env.minTimeout
	}
	if t < 0 {
		t = 0
	}
	return t
}

// SetEta updates the heartbeat period the freshness points assume — used
// by the adaptable-sending-period extension when the monitored process is
// commanded to a new interval. It affects freshness points computed from
// subsequent heartbeats.
func (d *Detector) SetEta(eta time.Duration) error {
	if eta <= 0 {
		return fmt.Errorf("core: detector %q needs a positive eta, got %v", d.name, eta)
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	d.eta = eta
	return nil
}

// Eta returns the heartbeat period the detector currently assumes.
func (d *Detector) Eta() time.Duration {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.eta
}

// Stop cancels any pending timer and tears the detector down: subsequent
// heartbeats are ignored, so a stopped detector can never resurrect a timer,
// and it serves no owner. The detector may be discarded afterwards.
func (d *Detector) Stop() {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.stopped, d.owner, d.offset = true, 0, 0
	if d.timer != nil { // nil on a detector Init never completed for
		d.timer.Stop()
	}
	if m := d.metrics; m != nil {
		// Push the tail of the batched observations so a removed peer's
		// last few heartbeats still reach the shared histograms.
		m.Delay.Flush()
		m.PredictorError.Flush()
	}
}

// DetectorStats returns a snapshot of the lifetime counters.
func (d *Detector) DetectorStats() DetectorStats {
	d.mu.Lock()
	defer d.mu.Unlock()
	return DetectorStats{Heartbeats: d.heartbeats, Stale: d.stale, Suspicions: d.suspicions}
}

func durToMs(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func msToDur(ms float64) time.Duration {
	return time.Duration(ms * float64(time.Millisecond))
}
