package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"strings"
	"time"

	"wanfd/internal/experiment"
	"wanfd/internal/nekostat"
)

// qosCmd reproduces the paper's QoS experiment (§5.2): the 30
// predictor×margin detectors against one simulated heartbeat stream with
// injected crashes, printed as the textual equivalent of Figures 4–8.
func qosCmd(fs *flag.FlagSet) func(io.Writer) error {
	var (
		runs         = fs.Int("runs", 13, "independent experiment runs (paper: 13)")
		cycles       = fs.Int("cycles", 10000, "heartbeat cycles per run")
		eta          = etaFlag(fs)
		mttc         = fs.Duration("mttc", 300*time.Second, "mean time to crash")
		ttr          = fs.Duration("ttr", 30*time.Second, "time to repair")
		preset, seed = channelFlags(fs)
		baselines    = fs.Bool("baselines", false, "include the NFD-E and Bertier baselines")
		params       = fs.Bool("params", false, "print the experiment parameters (Table 5) and exit")
		csvOut       = fs.String("csv", "", "also write the per-detector metrics as CSV to this file")
		tracePath    = traceFlag(fs)
		pushpull     = fs.Bool("pushpull", false, "run the push-vs-pull style comparison (§2.2) and exit")
		accrual      = fs.String("accrual", "", "comma-separated φ-accrual thresholds to race against the 30 detectors (e.g. \"2,5,8\")")
		withCI       = fs.Bool("ci", false, "render the sample-backed figures with 95% confidence half-widths")
		eventsOut    = fs.String("events", "", "write each run's raw event timeline to <prefix>.run<N>.jsonl")
		plot         = fs.Bool("plot", false, "render the figures as ASCII bar charts as well")
		skew         = fs.Duration("skew", 0, "inject a monitor-side clock error (violates the paper's NTP assumption)")
		sweep        = fs.String("sweep", "", "run a margin-parameter sweep instead: CI (sweep γ) or JAC (sweep φ)")
		sweepVals    = fs.String("sweep-params", "", "comma-separated sweep values (default 0.5,1,2,3.31,6)")
		sweepPred    = fs.String("sweep-predictor", "LAST", "predictor for the sweep")
		sweepLoss    = fs.Bool("sweep-loss", false, "run a loss-rate ablation instead (same delays, varying loss)")
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
		t5 := experiment.Table5{NumCycles: *cycles, Eta: *eta, MTTC: *mttc, TTR: *ttr, Seed: *seed}
		switch {
		case *sweepLoss:
			points, err := experiment.RunLossSweep(experiment.LossSweepConfig{Table5: t5})
			if err != nil {
				return err
			}
			fmt.Fprintln(w, "Loss-rate ablation: LAST+JAC_med, identical delay process")
			fmt.Fprint(w, experiment.LossSweepTable(points))
			return nil
		case *sweep != "":
			values, err := parseFloats("sweep-params", *sweepVals)
			if err != nil {
				return err
			}
			points, err := experiment.RunMarginSweep(experiment.SweepConfig{
				Predictor:    *sweepPred,
				MarginFamily: *sweep,
				Params:       values,
				Runs:         *runs,
				NumCycles:    *cycles,
				Eta:          *eta,
				MTTC:         *mttc,
				TTR:          *ttr,
				Preset:       p,
				Seed:         *seed,
			})
			if err != nil {
				return err
			}
			fmt.Fprintf(w, "Margin sweep: %s + SM_%s\n", *sweepPred, *sweep)
			fmt.Fprint(w, experiment.SweepTable(*sweep, points))
			return nil
		case *pushpull:
			cmp, err := experiment.RunPushPull(experiment.PushPullConfig{Table5: t5, Preset: p})
			if err != nil {
				return err
			}
			fmt.Fprint(w, cmp.Report())
			return nil
		}
		thresholds, err := parseFloats("accrual", *accrual)
		if err != nil {
			return err
		}
		cfg := experiment.QoSConfig{
			Runs:              *runs,
			Table5:            t5,
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

// qosModes are qos's modes, each selected by its flag (the detector grid by
// none), with the flags each honours besides the Table 5 flags -cycles,
// -eta, -mttc, -ttr and -seed.
var qosModes = []struct{ flag, honours string }{
	{"sweep-loss", ""},
	{"sweep", "runs preset sweep-params sweep-predictor"},
	{"pushpull", "preset"},
	{"", "runs preset trace baselines params csv accrual ci events plot skew"},
}

// checkQoSFlags rejects a command line that selects two modes, or that sets
// a flag its mode would silently ignore.
func checkQoSFlags(fs *flag.FlagSet) error {
	mode := qosModes[len(qosModes)-1]
	for _, m := range qosModes[:len(qosModes)-1] {
		if f := fs.Lookup(m.flag); f.Value.String() == f.DefValue {
			continue
		}
		if mode.flag != "" {
			return fmt.Errorf("-%s and -%s select different modes", mode.flag, m.flag)
		}
		mode = m
	}
	name := "the detector grid"
	if mode.flag != "" {
		name = "-" + mode.flag
	}
	honoured := strings.Fields("cycles eta mttc ttr seed " + mode.flag + " " + mode.honours)
	var err error
	fs.Visit(func(f *flag.Flag) {
		if err == nil && !slices.Contains(honoured, f.Name) {
			err = fmt.Errorf("-%s does not apply to %s", f.Name, name)
		}
	})
	return err
}
