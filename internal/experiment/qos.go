package experiment

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"wanfd/internal/core"
	"wanfd/internal/layers"
	"wanfd/internal/neko"
	"wanfd/internal/nekostat"
	"wanfd/internal/sim"
	"wanfd/internal/stats"
	"wanfd/internal/wan"
)

// QoSConfig parameterizes the main experiment (§5.2): Runs independent
// executions of NumCycles heartbeat cycles each, with the SimCrash layer
// injecting crashes, all detector combinations fed the identical message
// stream by one Monitor, and the QoS metrics pooled across runs.
//
// The defaults are the paper's Table 5 parameters: η = 1 s, MTTC = 300 s,
// TTR = 30 s, 13 runs, and NumCycles chosen so each run collects ≈ 30
// detection-time samples.
type QoSConfig struct {
	// Runs is the number of independent experiment runs (paper: 13).
	Runs int
	// Table5 holds NumCycles, η, MTTC, TTR, the seed (run i uses Seed+i)
	// and the warm-up.
	Table5
	// Preset selects the WAN channel (default Italy–Japan).
	Preset wan.Preset
	// Combos lists the detector combinations (default: the paper's 30).
	Combos []core.Combo
	// Baselines adds the NFD-E and Bertier reference detectors.
	Baselines bool
	// DelayTrace, when non-empty, replays a recorded delay trace instead
	// of the preset channel (losslessly); every run then sees the same
	// delays, with only the crash schedule varying by run.
	DelayTrace []time.Duration
	// AccrualThresholds adds one φ-accrual detector per threshold (named
	// "ACCRUAL_<θ>") to the run — the modern comparator for the paper's
	// detectors.
	AccrualThresholds []float64
	// KeepEvents retains each run's raw event timeline in the result
	// (QoSResult.RunEvents), for JSONL export and post-hoc analysis.
	KeepEvents bool
	// ClockSkew injects a fixed monitor-side clock error (violating the
	// paper's NTP assumption): heartbeat send timestamps appear shifted
	// by this amount. Positive skew tightens timeouts (more mistakes);
	// negative skew inflates them (slower detection).
	ClockSkew time.Duration
}

func (c *QoSConfig) setDefaults() {
	c.Table5.setDefaults()
	if c.Runs == 0 {
		c.Runs = 13
	}
	if c.Preset == 0 {
		c.Preset = wan.PresetItalyJapan
	}
	if len(c.Combos) == 0 {
		c.Combos = core.AllCombos()
	}
}

func (c *QoSConfig) validate() error {
	if err := c.Table5.validate(); err != nil {
		return err
	}
	if c.Runs < 0 {
		return fmt.Errorf("experiment: negative Runs %d", c.Runs)
	}
	return nil
}

// ParamsTable renders the experiment parameters in the layout of the
// paper's Table 5.
func (c QoSConfig) ParamsTable() string {
	cc := c
	cc.setDefaults()
	return fmt.Sprintf(
		"NumCycles %8d\nRuns      %8d\nMTTC      %8v\nTTR       %8v\neta       %8v\nchannel   %8s\n",
		cc.NumCycles, cc.Runs, cc.MTTC, cc.TTR, cc.Eta, cc.Preset)
}

// QoSResult aggregates the experiment's outcome.
type QoSResult struct {
	// Config is the effective (defaulted) configuration.
	Config QoSConfig
	// ByDetector maps detector name to its pooled QoS across runs.
	ByDetector map[string]nekostat.QoS
	// Order lists detector names in display order (the paper's
	// margin-major figure order, then baselines).
	Order []string
	// ChannelStats summarizes the heartbeat delays observed across runs
	// (the Table 4 characterization as seen by this experiment).
	ChannelStats stats.Running
	// RunEvents holds each run's raw event timeline when
	// QoSConfig.KeepEvents was set (nil otherwise).
	RunEvents [][]nekostat.Event
}

// RunQoS executes the full QoS experiment. The independent runs execute in
// parallel (each on its own single-threaded simulation engine); results are
// merged in run order, so the outcome is identical to a sequential
// execution with the same seed.
func RunQoS(cfg QoSConfig) (*QoSResult, error) {
	return runGrid(cfg, gridDetectors)
}

// detectorSet builds one run's detectors, in display order, on the given
// clock and reporting to l; cfg is the defaulted configuration.
type detectorSet func(cfg QoSConfig, clock sim.Clock, l core.SuspicionListener) ([]core.HeartbeatConsumer, error)

// runGrid runs the QoS experiment over the detectors dets builds: cfg.Runs
// runs, every detector of a run fed that run's one heartbeat stream, and
// each detector's QoS pooled across the runs in run order.
func runGrid(cfg QoSConfig, dets detectorSet) (*QoSResult, error) {
	cfg.setDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	res := &QoSResult{Config: cfg, ByDetector: make(map[string]nekostat.QoS)}

	type runOutcome struct {
		qos    []nekostat.QoS
		events []nekostat.Event
		chans  stats.Running
		err    error
	}
	outcomes := make([]runOutcome, cfg.Runs)
	var wg sync.WaitGroup
	sem := make(chan struct{}, runtime.GOMAXPROCS(0))
	for run := 0; run < cfg.Runs; run++ {
		run := run
		wg.Add(1)
		go func() {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			o := &outcomes[run]
			o.qos, o.events, o.err = runOnce(cfg, dets, cfg.Seed+int64(run), &o.chans)
		}()
	}
	wg.Wait()

	perRun := make(map[string][]nekostat.QoS)
	for run := range outcomes {
		o := &outcomes[run]
		if o.err != nil {
			return nil, fmt.Errorf("run %d: %w", run, o.err)
		}
		for _, q := range o.qos {
			if run == 0 {
				res.Order = append(res.Order, q.Detector)
			}
			perRun[q.Detector] = append(perRun[q.Detector], q)
		}
		res.ChannelStats.Merge(&o.chans)
		if cfg.KeepEvents {
			res.RunEvents = append(res.RunEvents, o.events)
		}
	}
	for name, runs := range perRun {
		merged, err := nekostat.MergeQoS(runs)
		if err != nil {
			return nil, err
		}
		res.ByDetector[name] = merged
	}
	return res, nil
}

// runOnce executes one run: every detector dets builds sits in one Monitor
// above a delay recorder feeding channelStats and, with ClockSkew set, a
// clock-skew layer beneath everything (Figure 3, right). It returns each
// detector's QoS in build order plus, when cfg.KeepEvents, the run's raw
// event timeline.
func runOnce(cfg QoSConfig, dets detectorSet, seed int64, channelStats *stats.Running) ([]nekostat.QoS, []nekostat.Event, error) {
	ch, err := buildChannel(cfg.Preset, cfg.DelayTrace, seed, "qos")
	if err != nil {
		return nil, nil, err
	}
	var names []string
	events, err := system{
		Table5: cfg.Table5,
		fwd:    ch,
		crash:  sim.NewRNG(seed, "simcrash"),
		monitor: func(eng *sim.Engine, l *nekostat.Collector) ([]neko.Layer, error) {
			cs, err := dets(cfg, eng, l)
			if err != nil {
				return nil, err
			}
			for _, c := range cs {
				names = append(names, c.Name())
			}
			mon, err := layers.NewConsumerMonitor(cs...)
			if err != nil {
				return nil, err
			}
			rec, err := layers.NewDelayRecorder(func(_ int64, d time.Duration) {
				channelStats.Add(float64(d) / float64(time.Millisecond))
			})
			if err != nil {
				return nil, err
			}
			if cfg.ClockSkew != 0 {
				return []neko.Layer{mon, rec, layers.NewClockSkew(cfg.ClockSkew)}, nil
			}
			return []neko.Layer{mon, rec}, nil
		},
	}.run()
	if err != nil {
		return nil, nil, err
	}
	out := make([]nekostat.QoS, len(names))
	for i, name := range names {
		if out[i], err = cfg.qos(events, name); err != nil {
			return nil, nil, fmt.Errorf("qos of %s: %w", name, err)
		}
	}
	if !cfg.KeepEvents {
		events = nil
	}
	return out, events, nil
}

// gridDetectors builds the QoS experiment's detectors: the combinations,
// then the NFD-E and Bertier baselines, then one φ-accrual detector per
// threshold.
func gridDetectors(cfg QoSConfig, clock sim.Clock, l core.SuspicionListener) ([]core.HeartbeatConsumer, error) {
	var out []core.HeartbeatConsumer
	for _, combo := range cfg.Combos {
		det, err := comboDetector(combo, cfg.Eta, clock, l)
		if err != nil {
			return nil, err
		}
		out = append(out, det)
	}
	if cfg.Baselines {
		// NFD-E's constant margin is derived from a detection-time bound
		// of 2η plus the channel's nominal mean delay, the way Chen et
		// al. size it from QoS requirements.
		meanDelay, err := nominalMeanDelayMs(cfg.Preset)
		if err != nil {
			return nil, err
		}
		alpha, err := core.NFDEAlphaForBound(2*cfg.Eta+msToDur(meanDelay), cfg.Eta, meanDelay)
		if err != nil {
			return nil, err
		}
		nfde, err := core.NewNFDE(alpha, cfg.Eta, clock, l)
		if err != nil {
			return nil, err
		}
		bertier, err := core.NewBertier(cfg.Eta, clock, l)
		if err != nil {
			return nil, err
		}
		out = append(out, nfde, bertier)
	}
	for _, th := range cfg.AccrualThresholds {
		pred, margin, err := core.NewAccrualCombo(th, 0, 0)
		if err != nil {
			return nil, err
		}
		det, err := core.NewDetector(core.DetectorConfig{
			Name:      fmt.Sprintf("ACCRUAL_%g", th),
			Predictor: pred,
			Margin:    margin,
			Eta:       cfg.Eta,
			Clock:     clock,
			Listener:  l,
		})
		if err != nil {
			return nil, err
		}
		out = append(out, det)
	}
	return out, nil
}

// nominalMeanDelayMs pre-characterizes the preset channel with a short
// sample, for sizing the NFD-E constant margin.
func nominalMeanDelayMs(p wan.Preset) (float64, error) {
	ch, err := wan.NewPresetChannel(p, 0, "nfde-sizing")
	if err != nil {
		return 0, err
	}
	c, err := wan.Characterize(ch, 2000, time.Second)
	if err != nil {
		return 0, err
	}
	return float64(c.MeanDelay) / float64(time.Millisecond), nil
}

func msToDur(ms float64) time.Duration {
	return time.Duration(ms * float64(time.Millisecond))
}
