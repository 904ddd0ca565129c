// Package stats provides the descriptive statistics used throughout the
// experiment harness: running moments (Welford), summaries with quantiles,
// confidence intervals and correlation.
//
// The failure-detector QoS metrics of the paper (T_D, T_M, T_MR, P_A) are
// random variables observed over an experiment run; this package turns the
// raw observations collected by nekostat into the numbers reported in the
// paper's tables and figures.
package stats

import (
	"errors"
	"fmt"
	"math"
	"sort"
)

// ErrNoData is returned by summary constructors when no observations were
// provided.
var ErrNoData = errors.New("stats: no data")

// Running accumulates first and second moments of a stream of observations
// in O(1) memory using Welford's algorithm. The zero value is ready to use.
type Running struct {
	n    int
	mean float64
	m2   float64
	min  float64
	max  float64
	sum  float64
}

// Add incorporates one observation.
func (r *Running) Add(x float64) {
	r.n++
	if r.n == 1 {
		r.min, r.max = x, x
	} else {
		if x < r.min {
			r.min = x
		}
		if x > r.max {
			r.max = x
		}
	}
	r.sum += x
	delta := x - r.mean
	r.mean += delta / float64(r.n)
	r.m2 += delta * (x - r.mean)
}

// N returns the number of observations added so far.
func (r *Running) N() int { return r.n }

// Mean returns the sample mean, or 0 if no observations were added.
func (r *Running) Mean() float64 { return r.mean }

// Sum returns the sum of all observations.
func (r *Running) Sum() float64 { return r.sum }

// Variance returns the unbiased sample variance (n-1 denominator), or 0 for
// fewer than two observations.
func (r *Running) Variance() float64 {
	if r.n < 2 {
		return 0
	}
	return r.m2 / float64(r.n-1)
}

// StdDev returns the sample standard deviation.
func (r *Running) StdDev() float64 { return math.Sqrt(r.Variance()) }

// SumSqDev returns the sum of squared deviations from the mean,
// Σ(x_i - x̄)². This is the denominator term in the SM_CI safety margin.
func (r *Running) SumSqDev() float64 { return r.m2 }

// Min returns the smallest observation, or 0 if none were added.
func (r *Running) Min() float64 {
	if r.n == 0 {
		return 0
	}
	return r.min
}

// Max returns the largest observation, or 0 if none were added.
func (r *Running) Max() float64 {
	if r.n == 0 {
		return 0
	}
	return r.max
}

// Merge combines another Running accumulator into r, as if all of o's
// observations had been added to r (Chan et al. parallel variance update).
func (r *Running) Merge(o *Running) {
	if o.n == 0 {
		return
	}
	if r.n == 0 {
		*r = *o
		return
	}
	delta := o.mean - r.mean
	total := r.n + o.n
	r.m2 += o.m2 + delta*delta*float64(r.n)*float64(o.n)/float64(total)
	r.mean += delta * float64(o.n) / float64(total)
	r.sum += o.sum
	if o.min < r.min {
		r.min = o.min
	}
	if o.max > r.max {
		r.max = o.max
	}
	r.n = total
}

// Summary holds a full descriptive summary of a finite sample, including
// order statistics.
type Summary struct {
	N      int
	Mean   float64
	StdDev float64
	Min    float64
	Max    float64
	P50    float64
	P90    float64
	P95    float64
	P99    float64
}

// Summarize computes a Summary of xs. It does not modify xs.
func Summarize(xs []float64) (Summary, error) {
	if len(xs) == 0 {
		return Summary{}, ErrNoData
	}
	sorted := make([]float64, len(xs))
	copy(sorted, xs)
	sort.Float64s(sorted)

	var r Running
	for _, x := range xs {
		r.Add(x)
	}
	return Summary{
		N:      r.N(),
		Mean:   r.Mean(),
		StdDev: r.StdDev(),
		Min:    sorted[0],
		Max:    sorted[len(sorted)-1],
		P50:    quantileSorted(sorted, 0.50),
		P90:    quantileSorted(sorted, 0.90),
		P95:    quantileSorted(sorted, 0.95),
		P99:    quantileSorted(sorted, 0.99),
	}, nil
}

// Quantile returns the q-quantile (0 ≤ q ≤ 1) of xs using linear
// interpolation between closest ranks. It does not modify xs.
func Quantile(xs []float64, q float64) (float64, error) {
	if len(xs) == 0 {
		return 0, ErrNoData
	}
	if q < 0 || q > 1 {
		return 0, fmt.Errorf("stats: quantile %v out of [0,1]", q)
	}
	sorted := make([]float64, len(xs))
	copy(sorted, xs)
	sort.Float64s(sorted)
	return quantileSorted(sorted, q), nil
}

func quantileSorted(sorted []float64, q float64) float64 {
	if len(sorted) == 1 {
		return sorted[0]
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return sorted[lo]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// MeanCI returns the sample mean of xs together with the half-width of an
// approximate 95% confidence interval (normal approximation; the paper's
// runs collect ≥30 T_D samples, where this is adequate).
func MeanCI(xs []float64) (mean, halfWidth float64, err error) {
	if len(xs) == 0 {
		return 0, 0, ErrNoData
	}
	var r Running
	for _, x := range xs {
		r.Add(x)
	}
	if r.N() < 2 {
		return r.Mean(), 0, nil
	}
	const z95 = 1.959963984540054
	return r.Mean(), z95 * r.StdDev() / math.Sqrt(float64(r.N())), nil
}

// Correlation returns the Pearson correlation coefficient between two
// equal-length samples. It errs on fewer than two points or zero variance.
func Correlation(xs, ys []float64) (float64, error) {
	if len(xs) != len(ys) {
		return 0, fmt.Errorf("stats: length mismatch %d != %d", len(xs), len(ys))
	}
	if len(xs) < 2 {
		return 0, ErrNoData
	}
	var mx, my float64
	for i := range xs {
		mx += xs[i]
		my += ys[i]
	}
	mx /= float64(len(xs))
	my /= float64(len(ys))
	var sxy, sxx, syy float64
	for i := range xs {
		dx, dy := xs[i]-mx, ys[i]-my
		sxy += dx * dy
		sxx += dx * dx
		syy += dy * dy
	}
	if sxx == 0 || syy == 0 {
		return 0, fmt.Errorf("stats: zero variance")
	}
	return sxy / math.Sqrt(sxx*syy), nil
}
