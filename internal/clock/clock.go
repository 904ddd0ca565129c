// Package clock implements the NTP-style offset estimator behind the
// real-network monitor's clock sync. The paper *assumes* synchronized clocks
// (offset 0, drift 0), discharging the assumption with NTP against two
// stratum servers; this package is that mechanism in miniature, so the UDP
// transport can subtract a measured offset from each peer's timestamps
// instead of assuming it away. The simulated clock-error model is
// layers.ClockSkew.
package clock

import (
	"fmt"
	"sort"
	"time"
)

// Sample is one NTP-style request/response exchange between a client and a
// server, carrying the four classic timestamps: T1 (client send, client
// clock), T2 (server receive, server clock), T3 (server send, server
// clock), T4 (client receive, client clock).
type Sample struct {
	T1, T2, T3, T4 time.Duration
}

// Offset returns the estimated offset of the server clock relative to the
// client clock, θ = ((T2−T1) + (T3−T4)) / 2. The estimate is exact when
// the two path delays are symmetric.
func (s Sample) Offset() time.Duration {
	return ((s.T2 - s.T1) + (s.T3 - s.T4)) / 2
}

// Delay returns the round-trip delay δ = (T4−T1) − (T3−T2).
func (s Sample) Delay() time.Duration {
	return (s.T4 - s.T1) - (s.T3 - s.T2)
}

// EstimateOffset combines several exchanges into one offset estimate using
// NTP's minimum-delay filter: samples are sorted by round-trip delay and
// the offsets of the lowest-delay half are averaged (low-delay exchanges
// suffer the least queueing asymmetry).
func EstimateOffset(samples []Sample) (time.Duration, error) {
	if len(samples) == 0 {
		return 0, fmt.Errorf("clock: no samples")
	}
	sorted := make([]Sample, len(samples))
	copy(sorted, samples)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Delay() < sorted[j].Delay() })
	keep := (len(sorted) + 1) / 2
	var sum time.Duration
	for _, s := range sorted[:keep] {
		sum += s.Offset()
	}
	return sum / time.Duration(keep), nil
}
