package main

import (
	"flag"
	"fmt"
	"io"

	"wanfd/internal/arima"
	"wanfd/internal/core"
	"wanfd/internal/experiment"
)

// accuracyCmd reproduces the paper's predictor-accuracy experiment (§5.1,
// Table 3): each predictor's one-step msqerr over the one-way delays of the
// simulated WAN, most accurate first; -grid adds the ARIMA (p, d, q) order
// search the paper ran with the RPS toolkit.
func accuracyCmd(fs *flag.FlagSet) func(io.Writer) error {
	var (
		samples      = fs.Int("samples", 100000, "heartbeats to collect (paper: 100000)")
		preset, seed = channelFlags(fs)
		grid         = fs.Bool("grid", false, "also run the ARIMA (p,d,q) order search")
		maxP         = fs.Int("maxp", 3, "grid search bound for p")
		maxD         = fs.Int("maxd", 2, "grid search bound for d")
		maxQ         = fs.Int("maxq", 2, "grid search bound for q")
		topN         = fs.Int("top", 10, "grid candidates to print")
		tracePath    = traceFlag(fs)
		extended     = fs.Bool("extended", false, "also evaluate the extension predictors (MEDIAN)")
		stability    = fs.Int("stability", 0, "repeat over this many seeds and report ranking stability")
	)
	return func(w io.Writer) error {
		if *topN < 0 {
			return fmt.Errorf("-top must be >= 0, got %d", *topN)
		}
		p, err := parsePreset(*preset)
		if err != nil {
			return err
		}
		delays, err := loadTrace(*tracePath)
		if err != nil {
			return err
		}
		predictors := append([]string(nil), core.PredictorNames...)
		if *extended {
			predictors = append(predictors, core.ExtendedPredictorNames...)
		}
		cfg := experiment.AccuracyConfig{
			Samples:    *samples,
			Seed:       *seed,
			Preset:     p,
			DelayTrace: delays,
			Predictors: predictors,
		}
		if *stability > 0 {
			st, err := experiment.RunAccuracyStability(cfg, *stability)
			if err != nil {
				return err
			}
			fmt.Fprintln(w, "Table 3 ranking stability across channel realizations")
			fmt.Fprint(w, st.Table())
			return nil
		}
		res, err := experiment.RunAccuracy(cfg)
		if err != nil {
			return err
		}
		fmt.Fprintln(w, "Table 3 — Predictor accuracy (one-step msqerr, most accurate first)")
		fmt.Fprint(w, res.Table())
		if !*grid {
			return nil
		}
		fmt.Fprintf(w, "\nARIMA order search over [0..%d]x[0..%d]x[0..%d] (by out-of-sample msqerr)\n",
			*maxP, *maxD, *maxQ)
		cands, err := arima.Search(res.DelaysMs, arima.SearchConfig{MaxP: *maxP, MaxD: *maxD, MaxQ: *maxQ})
		if err != nil {
			return err
		}
		for _, c := range cands[:min(*topN, len(cands))] {
			if c.Err != nil {
				fmt.Fprintf(w, "ARIMA(%d,%d,%d)  failed: %v\n", c.P, c.D, c.Q, c.Err)
				continue
			}
			fmt.Fprintf(w, "ARIMA(%d,%d,%d)  msqerr %.3f\n", c.P, c.D, c.Q, c.MSqErr)
		}
		return nil
	}
}
