package core

import (
	"fmt"
	"time"

	"wanfd/internal/sim"
)

// NewNFDE builds Chen/Toueg/Aguilera's NFD-E detector ([5] in the paper):
// the expected arrival time of the next heartbeat is estimated as the mean
// of past delays (the MEAN predictor) and a constant safety margin alpha —
// derived offline from QoS requirements — is added. It is the paper's
// static baseline; the modular adaptive detectors generalize it.
func NewNFDE(alphaMs float64, eta time.Duration, clock sim.Clock, l SuspicionListener) (*Detector, error) {
	margin, err := NewConstantMargin("NFDE_alpha", alphaMs)
	if err != nil {
		return nil, err
	}
	return NewDetector(DetectorConfig{
		Name:     "NFD-E",
		Margin:   margin,
		Combo:    Combo{Predictor: "MEAN"},
		Eta:      eta,
		Clock:    clock,
		Listener: l,
	})
}

// NFDEAlphaForBound returns the constant margin α (ms) that makes NFD-E's
// worst-case detection time meet an upper bound T_D^U for a given heartbeat
// period: the freshness point for heartbeat i is σ_i + η + mean(delay) + α,
// and after a crash the last heartbeat is at most one period old, so the
// bound requires α ≤ T_D^U − η − E[delay] (Chen et al.'s Theorem 1 shape,
// with the probabilistic refinements dropped — this repository measures the
// resulting QoS rather than assuming it).
func NFDEAlphaForBound(tdU, eta time.Duration, meanDelayMs float64) (float64, error) {
	alpha := durToMs(tdU) - durToMs(eta) - meanDelayMs
	if alpha < 0 {
		return 0, fmt.Errorf("core: detection bound %v unattainable with eta %v and mean delay %.1f ms",
			tdU, eta, meanDelayMs)
	}
	return alpha, nil
}

// NewBertier builds the adaptive detector of Bertier, Marin and Sens ([2]
// in the paper): Chen's mean-based expected-arrival estimation combined
// with a Jacobson-style dynamic safety margin. In this framework it is
// exactly MEAN + SM_JAC with φ = 1, α = 1/4.
func NewBertier(eta time.Duration, clock sim.Clock, l SuspicionListener) (*Detector, error) {
	return NewDetector(DetectorConfig{
		Name:     "Bertier",
		Combo:    Combo{Predictor: "MEAN", Margin: "JAC_low"},
		Eta:      eta,
		Clock:    clock,
		Listener: l,
	})
}
