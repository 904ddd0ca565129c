package core

import (
	"fmt"
	"math"
	"time"
)

// Accrual is a φ-accrual suspicion-level exporter — the modern descendant
// (Hayashibara et al., used by Cassandra and Akka) of the timeout detectors
// the paper studies, provided as the "future work" extension named in
// DESIGN.md. Instead of a boolean output it reports a continuous suspicion
// level
//
//	φ(t) = −log10 P(next heartbeat inter-arrival > t − t_last)
//
// under a normal approximation of the windowed inter-arrival distribution.
// Applications choose their own φ threshold, trading speed against
// accuracy without re-tuning the detector.
type Accrual struct {
	win      []float64 // inter-arrival times, ms
	next     int
	n        int
	lastMs   float64
	haveLast bool
	minStdMs float64
}

// NewAccrual builds a φ-accrual estimator over a window of the last n
// inter-arrival times. minStd (milliseconds) floors the estimated standard
// deviation so that a perfectly regular stream does not produce infinite φ
// the instant a heartbeat is one tick late; 0 means a 10 ms floor.
func NewAccrual(n int, minStd float64) (*Accrual, error) {
	if n < 2 {
		return nil, fmt.Errorf("core: accrual window must be at least 2, got %d", n)
	}
	if minStd < 0 {
		return nil, fmt.Errorf("core: accrual minStd must be non-negative, got %v", minStd)
	}
	if minStd == 0 {
		minStd = 10
	}
	return &Accrual{win: make([]float64, n), minStdMs: minStd}, nil
}

// Heartbeat records a heartbeat arrival at time at.
func (a *Accrual) Heartbeat(at time.Duration) {
	ms := durToMs(at)
	if a.haveLast {
		inter := ms - a.lastMs
		if inter >= 0 {
			if a.n == len(a.win) {
				a.win[a.next] = inter
			} else {
				a.win[a.next] = inter
				a.n++
			}
			a.next = (a.next + 1) % len(a.win)
		}
	}
	a.lastMs, a.haveLast = ms, true
}

// interArrivalStats returns the mean and standard deviation (both ms,
// std floored at the configured minimum) of the windowed inter-arrivals;
// ok is false before any interval was recorded.
func (a *Accrual) interArrivalStats() (mean, std float64, ok bool) {
	if a.n == 0 {
		return 0, 0, false
	}
	var sum float64
	for i := 0; i < a.n; i++ {
		sum += a.win[i]
	}
	mean = sum / float64(a.n)
	var ss float64
	for i := 0; i < a.n; i++ {
		d := a.win[i] - mean
		ss += d * d
	}
	std = math.Sqrt(ss / float64(a.n))
	if std < a.minStdMs {
		std = a.minStdMs
	}
	return mean, std, true
}

// Phi returns the suspicion level at time now. It returns 0 before two
// heartbeats have been observed.
func (a *Accrual) Phi(now time.Duration) float64 {
	if !a.haveLast {
		return 0
	}
	elapsed := durToMs(now) - a.lastMs
	if elapsed <= 0 {
		return 0
	}
	mean, std, ok := a.interArrivalStats()
	if !ok {
		return 0
	}
	p := 1 - normalCDF((elapsed-mean)/std)
	if p < 1e-300 {
		p = 1e-300
	}
	return -math.Log10(p)
}

// Suspected reports whether φ(now) exceeds the given threshold (Cassandra's
// default is 8, Akka's is 8–12).
func (a *Accrual) Suspected(now time.Duration, threshold float64) bool {
	return a.Phi(now) > threshold
}

// normalCDF is the standard normal cumulative distribution function.
func normalCDF(z float64) float64 {
	return 0.5 * math.Erfc(-z/math.Sqrt2)
}

// NewAccrualCombo builds φ-accrual as a predictor and a margin of Detector,
// the modern (Cassandra/Akka-lineage) comparator for the paper's
// detectors. Suspicion starts where φ(t) crosses threshold: under the
// normal approximation, at the freshest arrival plus mean + z·σ of the
// last window inter-arrival times (0 means 100), z the normal quantile of
// 1 − 10^{−threshold} and σ floored at minStdMs milliseconds (0 means
// 10 ms). The predictor forecasts the mean and the margin is z·σ; both
// read one window, whose mean and σ are computed once per fresh heartbeat.
//
// The predictor is anchored at arrivals, not send times: only fresh
// heartbeats reach the window, and until it holds an inter-arrival (at the
// first fresh heartbeat) the detector arms nothing, so a cold window never
// suspects.
func NewAccrualCombo(threshold float64, window int, minStdMs float64) (Predictor, SafetyMargin, error) {
	if threshold <= 0 {
		return nil, nil, fmt.Errorf("core: accrual threshold must be positive, got %v", threshold)
	}
	if window == 0 {
		window = 100
	}
	a, err := NewAccrual(window, minStdMs)
	if err != nil {
		return nil, nil, err
	}
	w := &accrualWindow{a: a}
	return w, &accrualMargin{w: w, z: probit(1 - math.Pow(10, -threshold)),
		name: fmt.Sprintf("PHI_%g", threshold)}, nil
}

// accrualWindow is φ-accrual's predictor: the mean of the windowed
// inter-arrival times, cached with their σ at each fresh arrival.
type accrualWindow struct {
	a         *Accrual
	mean, std float64
}

// Name returns "ACCRUAL".
func (*accrualWindow) Name() string { return "ACCRUAL" }

// Observe ignores delays: the window is fed arrivals, by arrive.
func (*accrualWindow) Observe(float64) {}

// Predict returns the mean inter-arrival time.
func (w *accrualWindow) Predict() float64 { return w.mean }

// arrive records a fresh heartbeat's arrival and reports whether the window
// holds a forecast yet: the detector calls it after the stale check, and
// anchors the freshness point at the arrival.
func (w *accrualWindow) arrive(at time.Duration) bool {
	w.a.Heartbeat(at)
	var ok bool
	w.mean, w.std, ok = w.a.interArrivalStats()
	return ok
}

// accrualMargin is φ-accrual's margin: z·σ of its predictor's window.
type accrualMargin struct {
	w    *accrualWindow
	z    float64
	name string
}

// Name returns "PHI_<threshold>".
func (m *accrualMargin) Name() string { return m.name }

// Observe is a no-op: the margin reads its predictor's window.
func (*accrualMargin) Observe(float64, float64) {}

// Margin returns z·σ.
func (m *accrualMargin) Margin() float64 { return m.z * m.w.std }

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
