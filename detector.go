package wanfd

import (
	"fmt"
	"time"

	"wanfd/internal/core"
	"wanfd/internal/sim"
)

// Predictor forecasts the next heartbeat's one-way delay in milliseconds.
// The built-in predictors are available through PredictorNames and
// NewPredictor; custom implementations may be plugged into DetectorConfig.
type Predictor = core.Predictor

// SafetyMargin computes the slack added to the forecast, in milliseconds.
type SafetyMargin = core.SafetyMargin

// DetectorStats is a snapshot of a detector's lifetime counters:
// heartbeats processed, stale (reordered or duplicate) heartbeats, and
// suspicion episodes started.
type DetectorStats = core.DetectorStats

// StatsProvider is implemented by detectors that expose lifetime counters:
// every monitored peer's detector, φ-accrual included.
type StatsProvider = core.StatsProvider

// PredictorNames lists the built-in predictors in the paper's order:
// ARIMA, LAST, LPF, MEAN, WINMEAN.
func PredictorNames() []string {
	return append([]string(nil), core.PredictorNames...)
}

// MarginNames lists the built-in safety margins in the paper's order:
// CI_low, CI_med, CI_high, JAC_low, JAC_med, JAC_high.
func MarginNames() []string {
	return append([]string(nil), core.MarginNames...)
}

// NewPredictor constructs a built-in predictor by name with the paper's
// Table 2 parameters.
func NewPredictor(name string) (Predictor, error) {
	return core.NewPredictorByName(name)
}

// NewMargin constructs a built-in safety margin by name with the paper's
// Table 1 parameters.
func NewMargin(name string) (SafetyMargin, error) {
	return core.NewMarginByName(name)
}

// Combination names one predictor×margin pair.
type Combination struct {
	// Predictor is one of PredictorNames().
	Predictor string
	// Margin is one of MarginNames().
	Margin string
}

// Name returns the display name, e.g. "ARIMA+CI_low".
func (c Combination) Name() string {
	return core.Combo{Predictor: c.Predictor, Margin: c.Margin}.Name()
}

// Combinations returns the paper's 30 predictor×margin combinations.
func Combinations() []Combination {
	combos := core.AllCombos()
	out := make([]Combination, len(combos))
	for i, c := range combos {
		out[i] = Combination{Predictor: c.Predictor, Margin: c.Margin}
	}
	return out
}

// DetectorConfig assembles a Detector.
type DetectorConfig struct {
	// Predictor and Margin name built-ins ("LAST", "JAC_med", ...).
	// CustomPredictor/CustomMargin override them when non-nil.
	Predictor, Margin string
	CustomPredictor   Predictor
	CustomMargin      SafetyMargin
	// Eta is the heartbeat sending period η of the monitored process.
	Eta time.Duration
	// OnSuspect and OnTrust, when non-nil, are invoked on output
	// transitions with the time elapsed since the detector was created.
	// They run on the detector's timer goroutine and must not block.
	OnSuspect, OnTrust func(elapsed time.Duration)
}

// Detector is a real-time failure detector for one monitored process. Feed
// it every received heartbeat with Heartbeat; query it with Suspected.
// It is safe for concurrent use.
type Detector struct {
	det   *core.Detector
	clock *sim.RealClock
}

// foldCallbacks merges the single-peer suspect/trust callbacks into one
// onChange closure, built once at construction so the sink carries a
// single callback. The split callback fires before onChange.
func foldCallbacks(onSuspect, onTrust func(time.Duration), onChange func(string, bool, time.Duration)) func(string, bool, time.Duration) {
	if onSuspect == nil && onTrust == nil {
		return onChange
	}
	return func(peer string, suspected bool, at time.Duration) {
		split := onTrust
		if suspected {
			split = onSuspect
		}
		if split != nil {
			split(at)
		}
		if onChange != nil {
			onChange(peer, suspected, at)
		}
	}
}

// NewDetector builds a real-time detector. The epoch of all elapsed times
// is the moment of this call.
func NewDetector(cfg DetectorConfig) (*Detector, error) {
	pred := cfg.CustomPredictor
	if pred == nil {
		if cfg.Predictor == "" {
			return nil, fmt.Errorf("wanfd: no predictor configured")
		}
		p, err := core.NewPredictorByName(cfg.Predictor)
		if err != nil {
			return nil, err
		}
		pred = p
	}
	margin := cfg.CustomMargin
	if margin == nil {
		if cfg.Margin == "" {
			return nil, fmt.Errorf("wanfd: no safety margin configured")
		}
		m, err := core.NewMarginByName(cfg.Margin)
		if err != nil {
			return nil, err
		}
		margin = m
	}
	clock := sim.NewRealClock()
	det, err := core.NewDetector(core.DetectorConfig{
		Predictor: pred,
		Margin:    margin,
		Eta:       cfg.Eta,
		Clock:     clock,
		Listener:  &sink{onChange: foldCallbacks(cfg.OnSuspect, cfg.OnTrust, nil)},
	})
	if err != nil {
		return nil, err
	}
	return &Detector{det: det, clock: clock}, nil
}

// Heartbeat reports the reception, now, of heartbeat number seq that the
// monitored process sent at sentAt (on a clock NTP-synchronized with this
// host, per the paper's assumption).
func (d *Detector) Heartbeat(seq int64, sentAt time.Time) {
	now := d.clock.Now()
	sendElapsed := d.clock.At(sentAt)
	d.det.OnHeartbeat(seq, sendElapsed, now)
}

// Suspected reports whether the monitored process is currently suspected.
func (d *Detector) Suspected() bool { return d.det.Suspected() }

// Timeout returns the current timeout δ = predictor + margin.
func (d *Detector) Timeout() time.Duration {
	return time.Duration(d.det.CurrentTimeout() * float64(time.Millisecond))
}

// Name returns the detector's combination name.
func (d *Detector) Name() string { return d.det.Name() }

// DetectorStats returns a snapshot of the lifetime counters.
func (d *Detector) DetectorStats() DetectorStats { return d.det.DetectorStats() }

// Stop cancels the detector's pending timer.
func (d *Detector) Stop() { d.det.Stop() }

// Accrual is a φ-accrual suspicion-level estimator (Hayashibara-style), the
// modern continuous-output descendant of the paper's binary detectors.
type Accrual struct {
	a     *core.Accrual
	clock *sim.RealClock
}

// NewAccrual builds a φ-accrual estimator over a window of the last n
// inter-arrival times; minStd floors the estimated deviation (0 means
// 10 ms).
func NewAccrual(n int, minStd time.Duration) (*Accrual, error) {
	a, err := core.NewAccrual(n, float64(minStd)/float64(time.Millisecond))
	if err != nil {
		return nil, err
	}
	return &Accrual{a: a, clock: sim.NewRealClock()}, nil
}

// Heartbeat records a heartbeat arrival now.
func (a *Accrual) Heartbeat() { a.a.Heartbeat(a.clock.Now()) }

// Phi returns the current suspicion level.
func (a *Accrual) Phi() float64 { return a.a.Phi(a.clock.Now()) }

// Suspected reports whether Phi exceeds the threshold (8 is a common
// default).
func (a *Accrual) Suspected(threshold float64) bool {
	return a.a.Suspected(a.clock.Now(), threshold)
}
