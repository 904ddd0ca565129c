package core

import (
	"fmt"
	"math"
)

// SafetyMargin computes the slack added to the predictor's forecast to
// limit premature timeouts (false suspicions). Observe is called once per
// received heartbeat with the observed delay and the prediction that was in
// effect for it; Margin returns the margin to use for the next cycle. All
// values are in milliseconds.
//
// Implementations are not safe for concurrent use; the Detector serializes
// access.
type SafetyMargin interface {
	// Name identifies the margin in reports ("CI_low", "JAC_high", ...).
	Name() string
	// Observe records one (observed delay, in-effect prediction) pair.
	Observe(obsMs, predMs float64)
	// Margin returns the margin for the next cycle, in milliseconds.
	Margin() float64
}

// ConstantMargin is a fixed safety margin — the choice of Chen et al.'s
// NFD-E, where the constant is derived from QoS requirements and a
// probabilistic characterization of the network.
type ConstantMargin struct {
	name string
	ms   float64
}

// NewConstantMargin returns a constant margin of ms milliseconds. ms must
// be non-negative.
func NewConstantMargin(name string, ms float64) (*ConstantMargin, error) {
	if ms < 0 {
		return nil, fmt.Errorf("core: constant margin must be non-negative, got %v", ms)
	}
	if name == "" {
		name = "CONST"
	}
	return &ConstantMargin{name: name, ms: ms}, nil
}

var _ SafetyMargin = (*ConstantMargin)(nil)

// Name returns the configured name.
func (m *ConstantMargin) Name() string { return m.name }

// Observe is a no-op: the margin does not adapt.
func (*ConstantMargin) Observe(float64, float64) {}

// Margin returns the constant.
func (m *ConstantMargin) Margin() float64 { return m.ms }

// marginState is the state of the paper's fixed-size margins: the words a
// Detector keeps in its own record for SM_CI, SM_JAC and a constant margin,
// and all that SMCI and SMJAC wrap. SM_CI keeps Welford's n, mean and m2
// (Σ(obs − mean)²) of the delays and the latest delay in v; SM_JAC keeps its
// smoothed absolute prediction error in v; a constant margin is v.
type marginState struct {
	n        int
	mean, m2 float64
	v        float64
}

// observeCI is SM_CI's step: one more delay into the running moments.
func (s *marginState) observeCI(obsMs float64) {
	s.n++
	delta := obsMs - s.mean
	s.mean += delta / float64(s.n)
	s.m2 += delta * (obsMs - s.mean)
	s.v = obsMs
}

// ci is SM_CI's margin at scale γ, the prediction-interval half-width.
func (s *marginState) ci(gamma float64) float64 {
	if s.n < 2 {
		return 0
	}
	term := 1 + 1/float64(s.n)
	if s.m2 > 0 {
		d := s.v - s.mean
		term += d * d / s.m2
	}
	// Rounded here, as a margin returned through an interface is: the
	// caller adds it to the forecast, and a fused multiply-add there would
	// move the freshness point on targets that fuse.
	return float64(gamma * math.Sqrt(s.m2/float64(s.n-1)) * math.Sqrt(term))
}

// observeJAC is SM_JAC's step at gain α: the absolute error of the
// prediction that was in effect, smoothed into v.
func (s *marginState) observeJAC(alpha, obsMs, predMs float64) {
	err := math.Abs(obsMs - predMs)
	s.v += alpha * (err - s.v)
}

// jac is SM_JAC's margin at scale φ (rounded as ci's is).
func (s *marginState) jac(phi float64) float64 { return float64(phi * s.v) }

// SMCI is the paper's confidence-interval margin
//
//	sm_{k+1} = γ · σ̂ · sqrt(1 + 1/n + (obs_n − ō)² / Σ_j (obs_j − ō)²),
//
// the half-width of a prediction interval around the delay process. It
// depends only on the network behaviour, never on the predictor — the
// property the paper leans on when explaining which margin suits which
// predictor. γ plays the role of the Student quantile: the paper uses
// 1 (low), 2 (med) and 3.31 (high).
type SMCI struct {
	name  string
	gamma float64
	s     marginState
}

// NewSMCI returns an SM_CI margin with the given γ > 0.
func NewSMCI(name string, gamma float64) (*SMCI, error) {
	if gamma <= 0 {
		return nil, fmt.Errorf("core: SM_CI gamma must be positive, got %v", gamma)
	}
	if name == "" {
		name = "CI"
	}
	return &SMCI{name: name, gamma: gamma}, nil
}

var _ SafetyMargin = (*SMCI)(nil)

// Name returns the configured name.
func (m *SMCI) Name() string { return m.name }

// Observe records one delay (the prediction is ignored by construction).
func (m *SMCI) Observe(obsMs, _ float64) { m.s.observeCI(obsMs) }

// Margin evaluates the prediction-interval half-width.
func (m *SMCI) Margin() float64 { return m.s.ci(m.gamma) }

// SMJAC is the paper's Jacobson-style margin: an exponentially smoothed
// mean absolute prediction error, scaled by φ,
//
//	v_{k+1} = v_k + α · (|obs_n − pred_k| − v_k),   sm_{k+1} = φ · v_{k+1},
//
// with α = 1/4 as advised by Jacobson's congestion-avoidance paper. Unlike
// SM_CI it is driven by the predictor's error, so an accurate predictor
// shrinks it toward zero — the mechanism behind the paper's headline
// finding that good predictors paired with SM_JAC lose accuracy.
//
// Note on the recursion: the paper writes sm_{k+1} = φ(sm_k + α(|err|−sm_k))
// with sm_k appearing inside the smoothing. Taken literally with the
// φ-scaled output fed back, the recursion diverges for φ(1−α) > 1 (φ = 4,
// α = 1/4 gives factor 3), so — as in Jacobson's and Bertier's original
// formulations — the smoothed deviation v is kept unscaled internally and φ
// multiplies only the output.
type SMJAC struct {
	name  string
	phi   float64
	alpha float64
	s     marginState
}

// NewSMJAC returns an SM_JAC margin with scale φ > 0 and gain α ∈ (0, 1].
func NewSMJAC(name string, phi, alpha float64) (*SMJAC, error) {
	if phi <= 0 {
		return nil, fmt.Errorf("core: SM_JAC phi must be positive, got %v", phi)
	}
	if alpha <= 0 || alpha > 1 {
		return nil, fmt.Errorf("core: SM_JAC alpha %v out of (0,1]", alpha)
	}
	if name == "" {
		name = "JAC"
	}
	return &SMJAC{name: name, phi: phi, alpha: alpha}, nil
}

var _ SafetyMargin = (*SMJAC)(nil)

// Name returns the configured name.
func (m *SMJAC) Name() string { return m.name }

// Observe smooths the absolute prediction error into the deviation state.
func (m *SMJAC) Observe(obsMs, predMs float64) { m.s.observeJAC(m.alpha, obsMs, predMs) }

// Margin returns φ times the smoothed deviation.
func (m *SMJAC) Margin() float64 { return m.s.jac(m.phi) }
