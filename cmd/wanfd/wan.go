package main

import (
	"flag"
	"fmt"
	"io"
	"math"
	"strings"
	"time"

	"wanfd/internal/arima"
	"wanfd/internal/wan"
)

// wanCmd characterizes a simulated WAN channel the way the paper's Table 4
// characterizes the Italy–Japan connection, and can save the sampled delay
// trace (text format for a .txt name) for qos and accuracy to replay.
func wanCmd(fs *flag.FlagSet) func(io.Writer) error {
	var (
		samples      = fs.Int("samples", 100000, "packets to sample")
		preset, seed = channelFlags(fs)
		eta          = etaFlag(fs)
		traceOut     = fs.String("trace-out", "", "write the sampled delay trace to this file (.txt = text format)")
		acfLags      = fs.Int("acf", 0, "also print the delay autocorrelation function up to this many lags")
	)
	return func(w io.Writer) error {
		p, err := parsePreset(*preset)
		if err != nil {
			return err
		}
		// The stream name keys the channel's randomness: it is kept as it
		// was first released, so a seed still yields the same channel and
		// the same recorded traces.
		ch, err := wan.NewPresetChannel(p, *seed, "fdwan")
		if err != nil {
			return err
		}
		delays, err := wan.CollectDelays(ch, *samples, *eta)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "Table 4 — Characteristics of the %s channel\n", p)
		fmt.Fprint(w, wan.SummarizeDelays(delays, *samples).Table())
		if *acfLags > 0 {
			if err := printACF(w, delays, *acfLags); err != nil {
				return err
			}
		}
		if *traceOut != "" {
			if err := saveTrace(*traceOut, delays); err != nil {
				return err
			}
			fmt.Fprintf(w, "wrote %d delays to %s\n", len(delays), *traceOut)
		}
		return nil
	}
}

// printACF prints the sample autocorrelation function of the delay series —
// the temporal-structure fingerprint that separates a WAN channel from
// white jitter (and the input signal the ARIMA predictor exploits).
func printACF(w io.Writer, delays []time.Duration, lags int) error {
	series := make([]float64, len(delays))
	for i, d := range delays {
		series[i] = float64(d) / float64(time.Millisecond)
	}
	gamma, err := arima.Autocovariance(series, lags)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "\nAutocorrelation of one-way delays\n")
	for k := 1; k <= lags; k++ {
		r := gamma[k] / gamma[0]
		bar := int(math.Round(math.Abs(r) * 40))
		sign := "+"
		if r < 0 {
			sign = "-"
		}
		fmt.Fprintf(w, "lag %3d  %+.3f %s%s\n", k, r, sign, strings.Repeat("=", bar))
	}
	return nil
}
