// Package core implements the paper's primary contribution: a modular,
// adaptive, push-style crash failure detector whose per-cycle timeout is
// the sum of a delay Predictor and a SafetyMargin, plus the 30 named
// predictor×margin combinations evaluated in the paper and the NFD-E and
// Bertier baselines it builds upon.
//
// All predictor and margin arithmetic is in float64 milliseconds (the unit
// of the paper's tables); the Detector engine converts to time.Duration at
// its boundary.
package core

import (
	"fmt"
	"math"

	"wanfd/internal/arima"
)

// Predictor forecasts the one-way transmission delay (in milliseconds) of
// the next heartbeat from the delays observed so far. Observations arrive
// in heartbeat *arrival* order — the paper's obs list under the sq()
// mapping — which may differ from send order when the network reorders.
//
// Implementations are not safe for concurrent use; the Detector serializes
// access.
type Predictor interface {
	// Name identifies the predictor in reports ("LAST", "ARIMA", ...).
	Name() string
	// Observe records the delay of a received heartbeat, in milliseconds.
	Observe(delayMs float64)
	// Predict returns the forecast delay of the next heartbeat, in
	// milliseconds. Before any observation it returns 0.
	Predict() float64
}

// predState is the state of the paper's fixed-size predictors: the words a
// Detector keeps in its own record for LAST, MEAN and LPF, and all that
// Last, Mean and LPF wrap. v is the forecast itself — LAST's latest delay,
// MEAN's running mean, LPF's smoothed delay — so every one predicts v
// (0 before any observation); n counts observations for MEAN and marks LPF
// primed.
type predState struct {
	v float64
	n int
}

// observeLast is LAST's step.
func (s *predState) observeLast(delayMs float64) { s.v = delayMs }

// observeMean is MEAN's step, Welford's running mean.
func (s *predState) observeMean(delayMs float64) {
	s.n++
	s.v += (delayMs - s.v) / float64(s.n)
}

// observeLPF is LPF(beta)'s step; the first observation initializes v.
func (s *predState) observeLPF(beta, delayMs float64) {
	if s.n == 0 {
		s.v, s.n = delayMs, 1
		return
	}
	s.v += beta * (delayMs - s.v)
}

// Last predicts the delay of the next heartbeat as the delay of the most
// recently received one (the paper's LAST predictor). The zero value is
// ready to use.
type Last struct {
	s predState
}

// NewLast returns a LAST predictor.
func NewLast() *Last { return &Last{} }

var _ Predictor = (*Last)(nil)

// Name returns "LAST".
func (*Last) Name() string { return "LAST" }

// Observe records the latest delay.
func (p *Last) Observe(delayMs float64) { p.s.observeLast(delayMs) }

// Predict returns the latest delay.
func (p *Last) Predict() float64 { return p.s.v }

// Mean predicts the mean of all observed delays (the paper's MEAN
// predictor; also the expected-arrival estimator of Chen et al.'s NFD-E).
// The zero value is ready to use.
type Mean struct {
	s predState
}

// NewMean returns a MEAN predictor.
func NewMean() *Mean { return &Mean{} }

var _ Predictor = (*Mean)(nil)

// Name returns "MEAN".
func (*Mean) Name() string { return "MEAN" }

// Observe adds one delay to the running mean.
func (p *Mean) Observe(delayMs float64) { p.s.observeMean(delayMs) }

// Predict returns the running mean of all observations.
func (p *Mean) Predict() float64 { return p.s.v }

// WinMean predicts the mean of the last N observed delays (the paper's
// WINMEAN(N); with fewer than N observations it equals MEAN, as the paper
// specifies).
type WinMean struct {
	win  []float64
	next int
	n    int
	sum  float64
}

// NewWinMean returns a WINMEAN(n) predictor. n must be positive.
func NewWinMean(n int) (*WinMean, error) {
	if n <= 0 {
		return nil, fmt.Errorf("core: WINMEAN window must be positive, got %d", n)
	}
	return &WinMean{win: make([]float64, n)}, nil
}

var _ Predictor = (*WinMean)(nil)

// Name returns "WINMEAN".
func (*WinMean) Name() string { return "WINMEAN" }

// Observe pushes one delay into the window.
func (p *WinMean) Observe(delayMs float64) {
	if p.n == len(p.win) {
		p.sum -= p.win[p.next]
	} else {
		p.n++
	}
	p.win[p.next] = delayMs
	p.sum += delayMs
	p.next = (p.next + 1) % len(p.win)
}

// Predict returns the mean of the windowed observations.
func (p *WinMean) Predict() float64 {
	if p.n == 0 {
		return 0
	}
	return p.sum / float64(p.n)
}

// LPF predicts via exponential smoothing, pred ← pred + β(obs − pred) (the
// paper's low-pass filter, ARIMA(0,1,1) in disguise). The first observation
// initializes the state.
type LPF struct {
	beta float64
	s    predState
}

// NewLPF returns an LPF(beta) predictor. beta must be in (0, 1].
func NewLPF(beta float64) (*LPF, error) {
	if beta <= 0 || beta > 1 {
		return nil, fmt.Errorf("core: LPF beta %v out of (0,1]", beta)
	}
	return &LPF{beta: beta}, nil
}

var _ Predictor = (*LPF)(nil)

// Name returns "LPF".
func (*LPF) Name() string { return "LPF" }

// Observe smooths one delay into the state.
func (p *LPF) Observe(delayMs float64) { p.s.observeLPF(p.beta, delayMs) }

// Predict returns the smoothed delay.
func (p *LPF) Predict() float64 { return p.s.v }

// ARIMA predicts with a periodically refitted ARIMA(p,d,q) model (the
// paper's most accurate predictor; the paper selects (2,1,1) and refits
// every 1000 observations). Until the first successful fit it behaves as
// LAST.
type ARIMA struct {
	f *arima.OnlineForecaster
}

// NewARIMA returns an ARIMA(p,d,q) predictor refitting every refitEvery
// observations (0 means the paper's 1000).
func NewARIMA(p, d, q, refitEvery int) (*ARIMA, error) {
	f, err := arima.NewOnlineForecaster(arima.OnlineConfig{P: p, D: d, Q: q, RefitEvery: refitEvery})
	if err != nil {
		return nil, err
	}
	return &ARIMA{f: f}, nil
}

var _ Predictor = (*ARIMA)(nil)

// Name returns "ARIMA".
func (*ARIMA) Name() string { return "ARIMA" }

// Observe feeds one delay to the online forecaster.
func (p *ARIMA) Observe(delayMs float64) { p.f.Observe(delayMs) }

// Predict returns the model's one-step forecast, floored at 0: a heartbeat
// cannot arrive before it is sent, so negative delay forecasts are
// truncated.
func (p *ARIMA) Predict() float64 {
	v := p.f.Predict()
	if v < 0 || math.IsNaN(v) {
		return 0
	}
	return v
}

// Fitted reports whether the underlying model has been fitted at least
// once (before that, ARIMA degrades to LAST).
func (p *ARIMA) Fitted() bool { return p.f.Fitted() }
