package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"wanfd/internal/experiment"
	"wanfd/internal/nekostat"
)

// table5Flags registers the run-shape flags of the simulated experiments
// (Table 5: -cycles, -eta, -mttc, -ttr, -seed) and returns their reader.
func table5Flags(fs *flag.FlagSet) func() experiment.Table5 {
	cycles := fs.Int("cycles", 10000, "heartbeat cycles per run")
	eta := etaFlag(fs)
	mttc := fs.Duration("mttc", 300*time.Second, "mean time to crash")
	ttr := fs.Duration("ttr", 30*time.Second, "time to repair")
	seed := fs.Int64("seed", 1, "random seed")
	return func() experiment.Table5 {
		return experiment.Table5{NumCycles: *cycles, Eta: *eta, MTTC: *mttc, TTR: *ttr, Seed: *seed}
	}
}

// runsFlag registers -runs, the number of independent experiment runs.
func runsFlag(fs *flag.FlagSet) *int {
	return fs.Int("runs", 13, "independent experiment runs (paper: 13)")
}

// qosCmd reproduces the paper's QoS experiment (§5.2): the 30
// predictor×margin detectors against one simulated heartbeat stream with
// injected crashes, printed as the textual equivalent of Figures 4–8.
func qosCmd(fs *flag.FlagSet) func(io.Writer) error {
	var (
		runs      = runsFlag(fs)
		table5    = table5Flags(fs)
		preset    = presetFlag(fs)
		baselines = fs.Bool("baselines", false, "include the NFD-E and Bertier baselines")
		params    = fs.Bool("params", false, "print the experiment parameters (Table 5) and exit")
		csvOut    = fs.String("csv", "", "also write the per-detector metrics as CSV to this file")
		tracePath = traceFlag(fs)
		accrual   = fs.String("accrual", "", "comma-separated φ-accrual thresholds to race against the 30 detectors (e.g. \"2,5,8\")")
		withCI    = fs.Bool("ci", false, "render the sample-backed figures with 95% confidence half-widths")
		eventsOut = fs.String("events", "", "write each run's raw event timeline to <prefix>.run<N>.jsonl")
		plot      = fs.Bool("plot", false, "render the figures as ASCII bar charts as well")
		skew      = fs.Duration("skew", 0, "inject a monitor-side clock error (violates the paper's NTP assumption)")
	)
	return func(w io.Writer) error {
		p, err := parsePreset(*preset)
		if err != nil {
			return err
		}
		delays, err := loadTrace(*tracePath)
		if err != nil {
			return err
		}
		thresholds, err := parseFloats("accrual", *accrual)
		if err != nil {
			return err
		}
		cfg := experiment.QoSConfig{
			Runs:              *runs,
			Table5:            table5(),
			Preset:            p,
			Baselines:         *baselines,
			DelayTrace:        delays,
			AccrualThresholds: thresholds,
			KeepEvents:        *eventsOut != "",
			ClockSkew:         *skew,
		}
		if *params {
			fmt.Fprint(w, cfg.ParamsTable())
			return nil
		}
		res, err := experiment.RunQoS(cfg)
		if err != nil {
			return err
		}
		fmt.Fprint(w, res.Report())
		if *plot {
			for _, m := range experiment.AllMetrics {
				fmt.Fprintln(w)
				fmt.Fprint(w, res.FigurePlot(m))
			}
		}
		if *withCI {
			for _, m := range []experiment.Metric{experiment.MetricTD, experiment.MetricTM, experiment.MetricTMR} {
				fmt.Fprintln(w)
				fmt.Fprint(w, res.FigureTableCI(m))
			}
		}
		if *csvOut != "" {
			if err := os.WriteFile(*csvOut, []byte(res.CSV()), 0o644); err != nil {
				return err
			}
			fmt.Fprintf(w, "wrote CSV to %s\n", *csvOut)
		}
		if *eventsOut != "" {
			for i, events := range res.RunEvents {
				path := fmt.Sprintf("%s.run%d.jsonl", *eventsOut, i)
				if err := writeFile(path, func(f io.Writer) error { return nekostat.WriteEvents(f, events) }); err != nil {
					return err
				}
			}
			fmt.Fprintf(w, "wrote %d event timelines to %s.run*.jsonl\n", len(res.RunEvents), *eventsOut)
		}
		for _, m := range experiment.AllMetrics {
			if best, v, err := res.BestCombo(m); err == nil {
				fmt.Fprintf(w, "best %-6s %-16s %.3f\n", m.String(), best.Name(), v)
			}
		}
		return nil
	}
}

// pushpullCmd compares the push and pull monitoring styles (§2.2) over one
// simulated channel.
func pushpullCmd(fs *flag.FlagSet) func(io.Writer) error {
	table5, preset := table5Flags(fs), presetFlag(fs)
	return func(w io.Writer) error {
		p, err := parsePreset(*preset)
		if err != nil {
			return err
		}
		cmp, err := experiment.RunPushPull(experiment.PushPullConfig{Table5: table5(), Preset: p})
		if err != nil {
			return err
		}
		fmt.Fprint(w, cmp.Report())
		return nil
	}
}

// sweepCmd sweeps one safety-margin family's parameter (§5.2's tuning
// recipe): the T_MR-vs-T_D curve of one predictor.
func sweepCmd(fs *flag.FlagSet) func(io.Writer) error {
	var (
		runs   = runsFlag(fs)
		table5 = table5Flags(fs)
		preset = presetFlag(fs)
		family = fs.String("margin", "CI", "margin family to sweep: CI (sweep γ) or JAC (sweep φ)")
		vals   = fs.String("params", "", "comma-separated sweep values (default 0.5,1,2,3.31,6)")
		pred   = fs.String("predictor", "LAST", "predictor for the sweep")
	)
	return func(w io.Writer) error {
		p, err := parsePreset(*preset)
		if err != nil {
			return err
		}
		values, err := parseFloats("params", *vals)
		if err != nil {
			return err
		}
		t5 := table5()
		points, err := experiment.RunMarginSweep(experiment.SweepConfig{
			Predictor:    *pred,
			MarginFamily: *family,
			Params:       values,
			Runs:         *runs,
			NumCycles:    t5.NumCycles,
			Eta:          t5.Eta,
			MTTC:         t5.MTTC,
			TTR:          t5.TTR,
			Preset:       p,
			Seed:         t5.Seed,
		})
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "Margin sweep: %s + SM_%s\n", *pred, *family)
		fmt.Fprint(w, experiment.SweepTable(*family, points))
		return nil
	}
}

// lossCmd is the loss-rate ablation: one fixed AR(1)-Gamma delay process
// with Bernoulli loss from 0 up, through LAST+JAC_med.
func lossCmd(fs *flag.FlagSet) func(io.Writer) error {
	table5 := table5Flags(fs)
	return func(w io.Writer) error {
		points, err := experiment.RunLossSweep(experiment.LossSweepConfig{Table5: table5()})
		if err != nil {
			return err
		}
		fmt.Fprintln(w, "Loss-rate ablation: LAST+JAC_med, identical delay process")
		fmt.Fprint(w, experiment.LossSweepTable(points))
		return nil
	}
}
