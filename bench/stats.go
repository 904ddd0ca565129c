package main

import (
	"math"
	"sort"
)

// minBeyond is how many samples must lie beyond a percentile before it is
// reported: a p99 of 300 samples is three observations, not a percentile.
const minBeyond = 10

// supports reports whether n samples support the q-quantile.
func supports(n int, q float64) bool {
	return float64(n)*math.Min(q, 1-q) >= minBeyond
}

// quantile is the nearest-rank q-quantile of an ascending sample.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	return sorted[max(0, min(i, len(sorted)-1))]
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	switch {
	case n == 0:
		return math.NaN()
	case n%2 == 1:
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// trimmedMean is the mean of xs without its lowest and its highest trim
// share.
func trimmedMean(xs []float64, trim float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	k := int(trim * float64(len(s)))
	s = s[k : len(s)-k]
	if len(s) == 0 {
		return math.NaN()
	}
	sum := 0.0
	for _, v := range s {
		sum += v
	}
	return sum / float64(len(s))
}

// quartiles returns the first and third quartile the way Python's
// statistics.quantiles(xs, n=4) does (exclusive method), which is what the
// acceptance rule for run-to-run spread is written in.
func quartiles(xs []float64) (q1, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n < 2 {
		return math.NaN(), math.NaN()
	}
	at := func(k int) float64 {
		pos := float64(k) * float64(n+1) / 4
		j := int(pos)
		j = max(1, min(j, n-1))
		frac := pos - float64(j)
		return s[j-1] + frac*(s[j]-s[j-1])
	}
	return at(1), at(3)
}

// series is one metric's per-segment values over the undisturbed segments
// of a run. The reported value is their median.
type series []float64

func (s series) summary() (med, lo, hi float64) {
	if len(s) == 0 {
		return math.NaN(), math.NaN(), math.NaN()
	}
	lo, hi = s[0], s[0]
	for _, v := range s {
		lo, hi = math.Min(lo, v), math.Max(hi, v)
	}
	return median(s), lo, hi
}

// segmentQuantile computes the q-quantile of each segment's samples and
// returns the per-segment series; segments without samples are passed over.
// When some segment is too small to support the quantile the segments are
// pooled into one value instead; ok is false when even the pool is too
// small.
func segmentQuantile(segs [][]float64, q float64) (out series, samples int, ok bool) {
	perSegment := true
	for _, s := range segs {
		samples += len(s)
		if len(s) > 0 && !supports(len(s), q) {
			perSegment = false
		}
	}
	if !supports(samples, q) {
		return nil, samples, false
	}
	if perSegment {
		for _, s := range segs {
			if len(s) > 0 {
				sort.Float64s(s)
				out = append(out, quantile(s, q))
			}
		}
		return out, samples, true
	}
	var pool []float64
	for _, s := range segs {
		pool = append(pool, s...)
	}
	sort.Float64s(pool)
	return series{quantile(pool, q)}, samples, true
}
