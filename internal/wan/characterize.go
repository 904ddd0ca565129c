package wan

import (
	"fmt"
	"strings"
	"time"

	"wanfd/internal/stats"
)

// Characterization summarizes a channel's behaviour the way the paper's
// Table 4 characterizes the Italy–Japan connection, extended with the
// delay percentiles that matter when sizing timeouts.
type Characterization struct {
	Samples     int
	MeanDelay   time.Duration
	StdDevDelay time.Duration
	MinDelay    time.Duration
	MaxDelay    time.Duration
	P50Delay    time.Duration
	P95Delay    time.Duration
	P99Delay    time.Duration
	LossRate    float64
}

// Characterize offers n packets at interval eta to the channel and
// summarizes what it delivers: CollectDelays followed by SummarizeDelays.
// It consumes channel state (delay correlations, loss bursts advance).
func Characterize(c *Channel, n int, eta time.Duration) (Characterization, error) {
	delays, err := CollectDelays(c, n, eta)
	if err != nil {
		return Characterization{}, err
	}
	return SummarizeDelays(delays, n), nil
}

// SummarizeDelays characterizes the delays a channel delivered out of
// offered > 0 packets: the delay distribution, and as LossRate the share of
// offered packets that never arrived (1, with zero delays, when none did).
func SummarizeDelays(delays []time.Duration, offered int) Characterization {
	lossRate := float64(offered-len(delays)) / float64(offered)
	series := make([]float64, len(delays))
	for i, d := range delays {
		series[i] = float64(d) / float64(time.Millisecond)
	}
	sum, err := stats.Summarize(series)
	if err != nil { // nothing delivered
		return Characterization{Samples: offered, LossRate: lossRate}
	}
	ms := func(v float64) time.Duration { return time.Duration(v * float64(time.Millisecond)) }
	return Characterization{
		Samples:     offered,
		MeanDelay:   ms(sum.Mean),
		StdDevDelay: ms(sum.StdDev),
		MinDelay:    ms(sum.Min),
		MaxDelay:    ms(sum.Max),
		P50Delay:    ms(sum.P50),
		P95Delay:    ms(sum.P95),
		P99Delay:    ms(sum.P99),
		LossRate:    lossRate,
	}
}

// Table renders the characterization in the layout of the paper's Table 4.
func (c Characterization) Table() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Mean one-way delay      %8.1f msec\n", float64(c.MeanDelay)/float64(time.Millisecond))
	fmt.Fprintf(&b, "Standard deviation      %8.1f msec\n", float64(c.StdDevDelay)/float64(time.Millisecond))
	fmt.Fprintf(&b, "Maximum one-way delay   %8.0f msec\n", float64(c.MaxDelay)/float64(time.Millisecond))
	fmt.Fprintf(&b, "Minimum one-way delay   %8.0f msec\n", float64(c.MinDelay)/float64(time.Millisecond))
	fmt.Fprintf(&b, "Median / P95 / P99      %8.0f / %.0f / %.0f msec\n",
		float64(c.P50Delay)/float64(time.Millisecond),
		float64(c.P95Delay)/float64(time.Millisecond),
		float64(c.P99Delay)/float64(time.Millisecond))
	fmt.Fprintf(&b, "Loss probability        %8.3f %%\n", c.LossRate*100)
	fmt.Fprintf(&b, "Samples                 %8d\n", c.Samples)
	return b.String()
}

// CollectDelays offers n packets at interval eta and returns the delivered
// one-way delays in arrival order of the underlying send sequence (lost
// packets contribute nothing). This is the observation stream the paper's
// predictors consume in the accuracy experiment.
func CollectDelays(c *Channel, n int, eta time.Duration) ([]time.Duration, error) {
	if n <= 0 {
		return nil, fmt.Errorf("wan: collect needs n > 0, got %d", n)
	}
	if eta <= 0 {
		return nil, fmt.Errorf("wan: collect needs eta > 0, got %v", eta)
	}
	out := make([]time.Duration, 0, n)
	for i := 0; i < n; i++ {
		sendAt := time.Duration(i) * eta
		deliverAt, ok := c.Transmit(sendAt)
		if !ok {
			continue
		}
		out = append(out, deliverAt-sendAt)
	}
	return out, nil
}
