// Package qosplan implements the configuration side of Chen, Toueg and
// Aguilera's NFD approach, which the paper contrasts with its adaptive
// detectors (§2.2): given a probabilistic characterization of the network
// (loss probability, delay mean and variance) and QoS *requirements* (a
// detection-time bound that must always hold, and optional accuracy
// targets), compute the heartbeat period η and the constant timeout δ of a
// freshness-point detector, together with the QoS the analysis predicts.
//
// The predictions use first-order renewal approximations of Chen et al.'s
// analysis under a normal delay model; they are validated against the
// discrete-event simulation in the package tests (agreement within a small
// factor, which is what a planning tool needs).
package qosplan

import (
	"fmt"
	"math"
	"time"

	"wanfd/internal/nekostat"
)

// Network is the probabilistic characterization of the channel (the
// paper's Table 4 numbers for the Italy–Japan link, for example).
type Network struct {
	// LossProb is the per-message loss probability, in [0, 1).
	LossProb float64
	// MeanDelay and StdDevDelay characterize the one-way delay.
	MeanDelay, StdDevDelay time.Duration
}

func (n Network) validate() error {
	if n.LossProb < 0 || n.LossProb >= 1 {
		return fmt.Errorf("qosplan: loss probability %v out of [0,1)", n.LossProb)
	}
	if n.MeanDelay <= 0 {
		return fmt.Errorf("qosplan: mean delay must be positive, got %v", n.MeanDelay)
	}
	if n.StdDevDelay <= 0 {
		return fmt.Errorf("qosplan: delay stddev must be positive, got %v", n.StdDevDelay)
	}
	return nil
}

// Requirements are the QoS targets.
type Requirements struct {
	// MaxDetectionTime is the hard bound T_D^U on detection time
	// (required): a crash is permanently suspected within this time.
	MaxDetectionTime time.Duration
	// MinMistakeRecurrence, if nonzero, is the lower bound T_MR^L on the
	// mean time between mistakes.
	MinMistakeRecurrence time.Duration
	// MaxMistakeDuration, if nonzero, is the upper bound T_M^U on the
	// mean mistake duration.
	MaxMistakeDuration time.Duration
}

// Plan is the planner's output: detector parameters plus predicted QoS.
type Plan struct {
	// Eta is the heartbeat period η.
	Eta time.Duration
	// Timeout is the constant timeout δ: the freshness point of
	// heartbeat i is σ_i + η + δ. With the library's Detector this is
	// NFD-E with a constant margin of Timeout − MeanDelay.
	Timeout time.Duration
	// Margin is Timeout − MeanDelay, the constant safety margin α.
	Margin time.Duration

	// Predicted QoS under the network model.
	PredictedDetectionBound    time.Duration // = Eta + Timeout (worst case)
	PredictedMeanDetection     time.Duration // ≈ Eta/2 + Timeout
	PredictedMistakeRecurrence time.Duration
	PredictedMistakeDuration   time.Duration
	PredictedQueryAccuracy     float64
}

// normalCDF is the standard normal CDF.
func normalCDF(z float64) float64 { return 0.5 * math.Erfc(-z/math.Sqrt2) }

// normalPDF is the standard normal density.
func normalPDF(z float64) float64 { return math.Exp(-z*z/2) / math.Sqrt(2*math.Pi) }

// model evaluates the renewal approximations for a candidate (η, δ).
// All analysis is in float64 seconds.
type model struct {
	pL, mean, sd float64
}

// pMistake is the per-cycle probability that the freshness point of
// heartbeat i expires: the covering heartbeat i+1 (sent η later, due within
// δ) is lost or late, and any later heartbeat i+1+k has only δ − kη of
// slack.
func (m model) pMistake(eta, delta float64) float64 {
	p := 1.0
	for k := 0; k <= 64; k++ {
		slack := delta - float64(k)*eta
		if slack < m.mean-8*m.sd {
			// This and all later heartbeats cannot arrive by τ: their
			// factors are ≈1.
			break
		}
		pk := m.pL + (1-m.pL)*(1-normalCDF((slack-m.mean)/m.sd))
		p *= pk
		if p < 1e-300 {
			break
		}
	}
	return p
}

// meanMistake approximates the expected mistake duration: once the
// freshness point expired, trust returns when the first subsequent
// heartbeat arrives.
func (m model) meanMistake(eta, delta float64) float64 {
	// Case split on why heartbeat i+1 missed the deadline.
	z := (delta - m.mean) / m.sd
	pLate := (1 - m.pL) * (1 - normalCDF(z))
	pLost := m.pL
	pMiss := pLost + pLate
	if pMiss <= 0 {
		return 0
	}
	// Late: it still arrives; conditional overshoot of a normal beyond
	// delta is sd·φ(z)/(1−Φ(z)).
	var lateDur float64
	if tail := 1 - normalCDF(z); tail > 1e-300 {
		lateDur = m.sd * normalPDF(z) / tail
	}
	// Lost: the next heartbeat (one period later) covers, arriving around
	// η + mean − delta after the expiry, recursing on further losses.
	lostDur := eta + m.mean - delta + (m.pL/(1-m.pL))*eta
	if lostDur < 0 {
		lostDur = 0
	}
	return (pLost*lostDur + pLate*lateDur) / pMiss
}

// Derive computes the QoS a given (η, δ) pair yields under the network
// model — the forward direction of the analysis.
func Derive(n Network, eta, timeout time.Duration) (Plan, error) {
	if err := n.validate(); err != nil {
		return Plan{}, err
	}
	if eta <= 0 || timeout <= 0 {
		return Plan{}, fmt.Errorf("qosplan: eta and timeout must be positive, got %v/%v", eta, timeout)
	}
	m := model{
		pL:   n.LossProb,
		mean: n.MeanDelay.Seconds(),
		sd:   n.StdDevDelay.Seconds(),
	}
	e, d := eta.Seconds(), timeout.Seconds()
	pm := m.pMistake(e, d)
	var tmr float64
	if pm > 0 {
		tmr = e / pm
	} else {
		tmr = math.Inf(1)
	}
	tm := m.meanMistake(e, d)
	pa := 1.0
	if !math.IsInf(tmr, 1) && tmr > 0 {
		// The model's own value, even where it is no probability.
		pa, _ = nekostat.FormulaPA(tm, tmr)
	}
	plan := Plan{
		Eta:                      eta,
		Timeout:                  timeout,
		Margin:                   timeout - n.MeanDelay,
		PredictedDetectionBound:  eta + timeout,
		PredictedMeanDetection:   eta/2 + timeout,
		PredictedMistakeDuration: secToDur(tm),
		PredictedQueryAccuracy:   pa,
	}
	if math.IsInf(tmr, 1) {
		plan.PredictedMistakeRecurrence = time.Duration(math.MaxInt64)
	} else {
		plan.PredictedMistakeRecurrence = secToDur(tmr)
	}
	return plan, nil
}

// Compute finds the largest heartbeat period η (fewest messages, Chen's
// objective) such that some constant timeout δ = T_D^U − η meets every
// requirement. It returns an error if no (η, δ) pair is feasible — e.g.
// the detection bound is smaller than the network's delay spread, or the
// accuracy targets are unreachable within the detection bound.
func Compute(n Network, req Requirements) (Plan, error) {
	if err := n.validate(); err != nil {
		return Plan{}, err
	}
	if req.MaxDetectionTime <= 0 {
		return Plan{}, fmt.Errorf("qosplan: MaxDetectionTime is required, got %v", req.MaxDetectionTime)
	}
	// δ must at least cover the typical delay with some slack, or every
	// cycle is a mistake.
	minTimeout := n.MeanDelay + n.StdDevDelay
	if req.MaxDetectionTime <= minTimeout {
		return Plan{}, fmt.Errorf(
			"qosplan: detection bound %v cannot cover mean delay %v + 1σ %v",
			req.MaxDetectionTime, n.MeanDelay, n.StdDevDelay)
	}
	// Scan η from large to small; δ = bound − η grows as η shrinks, so
	// accuracy improves monotonically while message cost rises.
	const steps = 200
	total := req.MaxDetectionTime - minTimeout
	var firstErr error
	for i := 1; i <= steps; i++ {
		eta := time.Duration(int64(total) * int64(steps-i+1) / steps)
		if eta <= 0 {
			continue
		}
		timeout := req.MaxDetectionTime - eta
		plan, err := Derive(n, eta, timeout)
		if err != nil {
			firstErr = err
			continue
		}
		if req.MinMistakeRecurrence > 0 && plan.PredictedMistakeRecurrence < req.MinMistakeRecurrence {
			continue
		}
		if req.MaxMistakeDuration > 0 && plan.PredictedMistakeDuration > req.MaxMistakeDuration {
			continue
		}
		return plan, nil
	}
	if firstErr != nil {
		return Plan{}, firstErr
	}
	return Plan{}, fmt.Errorf("qosplan: no (eta, timeout) within detection bound %v meets the accuracy targets",
		req.MaxDetectionTime)
}

func secToDur(s float64) time.Duration {
	if s >= math.MaxInt64/float64(time.Second) {
		return time.Duration(math.MaxInt64)
	}
	return time.Duration(s * float64(time.Second))
}
