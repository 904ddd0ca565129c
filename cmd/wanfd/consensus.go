package main

import (
	"flag"
	"fmt"
	"io"
	"time"

	"wanfd/internal/consensus"
)

// consensusCmd measures how failure-detector QoS shapes consensus latency
// (the relationship the paper cites from Coccoli et al. [6]): a
// rotating-coordinator consensus runs over simulated WAN links, optionally
// with the round-0 coordinator crashing mid-protocol, for each detector
// combination.
func consensusCmd(fs *flag.FlagSet) func(io.Writer) error {
	var (
		n            = fs.Int("n", 3, "number of participants")
		runs         = fs.Int("runs", 5, "executions per combination")
		eta          = etaFlag(fs)
		crash        = fs.Duration("crash", 100*time.Millisecond, "crash the round-0 coordinator this long after start (0 = no crash)")
		preset, seed = channelFlags(fs)
		combos       = fs.String("combos", "LAST+JAC_low,LAST+JAC_med,ARIMA+CI_low,MEAN+CI_high",
			"comma-separated predictor+margin combinations")
	)
	return func(w io.Writer) error {
		if *runs < 1 {
			return fmt.Errorf("-runs must be >= 1, got %d", *runs)
		}
		p, err := parsePreset(*preset)
		if err != nil {
			return err
		}
		list, err := parseCombos(*combos)
		if err != nil {
			return err
		}

		fmt.Fprintf(w, "consensus: n=%d, eta=%v, channel=%s, %d runs per combination\n\n",
			*n, *eta, p, *runs)
		fmt.Fprintf(w, "%-18s %14s %10s %10s\n", "detector", "mean latency", "max round", "agreement")
		for _, combo := range list {
			var total time.Duration
			var maxRound int64
			agreement := true
			for i := 0; i < *runs; i++ {
				res, err := consensus.RunExperiment(consensus.ExperimentConfig{
					N:                  *n,
					Combo:              combo,
					Eta:                *eta,
					PollInterval:       *eta / 100,
					Seed:               *seed + int64(i),
					Preset:             p,
					CoordinatorCrashAt: *crash,
				})
				if err != nil {
					return err
				}
				if !res.Decided {
					return fmt.Errorf("%s run %d did not terminate", combo.Name(), i)
				}
				agreement = agreement && res.Agreement
				total += res.Latency
				maxRound = max(maxRound, res.MaxRound)
			}
			fmt.Fprintf(w, "%-18s %14v %10d %10v\n",
				combo.Name(), (total / time.Duration(*runs)).Round(time.Millisecond), maxRound, agreement)
		}
		return nil
	}
}
