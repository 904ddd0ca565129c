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
	"wanfd/internal/sched"
	"wanfd/internal/sim"
	"wanfd/internal/stats"
	"wanfd/internal/wan"
)

// QoSConfig parameterizes the main experiment (§5.2): Runs independent
// executions of NumCycles heartbeat cycles each, with the SimCrash layer
// injecting crashes, all detector combinations fed the identical message
// stream through the MultiPlexer, and the QoS metrics pooled across runs.
//
// The defaults are the paper's Table 5 parameters: η = 1 s, MTTC = 300 s,
// TTR = 30 s, 13 runs, and NumCycles chosen so each run collects ≈ 30
// detection-time samples.
type QoSConfig struct {
	// Runs is the number of independent experiment runs (paper: 13).
	Runs int
	// NumCycles is the number of heartbeat cycles per run (≈ 10 000 gives
	// the paper's N_TD ≈ 30 per run with the default MTTC and TTR).
	NumCycles int
	// Eta is the heartbeat period η (paper: 1 s).
	Eta time.Duration
	// MTTC is the mean time to crash (paper: 300 s).
	MTTC time.Duration
	// TTR is the constant time to repair (paper: 30 s).
	TTR time.Duration
	// Preset selects the WAN channel (default Italy–Japan).
	Preset wan.Preset
	// Seed drives all randomness; run i uses Seed+i.
	Seed int64
	// Combos lists the detector combinations (default: the paper's 30).
	Combos []core.Combo
	// Baselines adds the NFD-E and Bertier reference detectors.
	Baselines bool
	// Warmup excludes the bootstrap transient from the metrics window
	// (default 60 s).
	Warmup time.Duration
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
	// SchedulerTick, when positive, runs the detectors' freshness timers
	// on a sched.Wheel of that granularity layered over the virtual
	// engine — the exact scheduler code the real cluster monitor uses, so
	// simulated and production executions share the wheel path. The wheel
	// fires a slot's earliest deadline at its exact instant; deadlines
	// sharing a slot with an earlier one wait for the tick boundary (under
	// one tick later, never early). Zero keeps the engine's exact heap
	// scheduling.
	SchedulerTick time.Duration

	// customDetectors, when non-nil, supplies additional detectors per
	// run (used by the margin-sweep experiment to evaluate arbitrary
	// parameter values on the shared stream).
	customDetectors func(clock sim.Clock, l core.SuspicionListener) ([]*core.Detector, error)
}

// effectiveEta returns the configured η after defaulting.
func (c QoSConfig) effectiveEta() time.Duration {
	if c.Eta == 0 {
		return time.Second
	}
	return c.Eta
}

func (c *QoSConfig) setDefaults() {
	if c.Runs == 0 {
		c.Runs = 13
	}
	if c.NumCycles == 0 {
		c.NumCycles = 10000
	}
	if c.Eta == 0 {
		c.Eta = time.Second
	}
	if c.MTTC == 0 {
		c.MTTC = 300 * time.Second
	}
	if c.TTR == 0 {
		c.TTR = 30 * time.Second
	}
	if c.Preset == 0 {
		c.Preset = wan.PresetItalyJapan
	}
	if len(c.Combos) == 0 {
		c.Combos = core.AllCombos()
	}
	if c.Warmup == 0 {
		c.Warmup = 60 * time.Second
	}
}

func (c *QoSConfig) validate() error {
	if c.Runs < 0 || c.NumCycles < 0 {
		return fmt.Errorf("experiment: negative Runs/NumCycles (%d/%d)", c.Runs, c.NumCycles)
	}
	if c.Eta < 0 || c.MTTC < 0 || c.TTR < 0 || c.Warmup < 0 {
		return fmt.Errorf("experiment: negative durations in config")
	}
	if c.SchedulerTick < 0 {
		return fmt.Errorf("experiment: negative SchedulerTick %v", c.SchedulerTick)
	}
	window := time.Duration(c.NumCycles) * c.Eta
	if window <= c.Warmup {
		return fmt.Errorf("experiment: run length %v not longer than warmup %v", window, c.Warmup)
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
	cfg.setDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	res := &QoSResult{Config: cfg, ByDetector: make(map[string]nekostat.QoS)}

	type runOutcome struct {
		qos    map[string]nekostat.QoS
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
			o.qos, o.events, o.err = runOnce(cfg, cfg.Seed+int64(run), &o.chans)
		}()
	}
	wg.Wait()

	perRun := make(map[string][]nekostat.QoS, len(cfg.Combos)+2)
	for run := range outcomes {
		o := &outcomes[run]
		if o.err != nil {
			return nil, fmt.Errorf("run %d: %w", run, o.err)
		}
		for name, q := range o.qos {
			perRun[name] = append(perRun[name], q)
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
	for _, c := range cfg.Combos {
		res.Order = append(res.Order, c.Name())
	}
	if cfg.Baselines {
		res.Order = append(res.Order, "NFD-E", "Bertier")
	}
	for _, th := range cfg.AccrualThresholds {
		res.Order = append(res.Order, fmt.Sprintf("ACCRUAL_%g", th))
	}
	return res, nil
}

// runOnce executes one experiment run and returns per-detector QoS plus
// (when cfg.KeepEvents) the run's raw event timeline.
func runOnce(cfg QoSConfig, seed int64, channelStats *stats.Running) (map[string]nekostat.QoS, []nekostat.Event, error) {
	eng := sim.NewEngine()
	net, err := neko.NewSimNetwork(eng, nil)
	if err != nil {
		return nil, nil, err
	}
	ch, err := buildChannel(cfg.Preset, cfg.DelayTrace, seed, "qos")
	if err != nil {
		return nil, nil, err
	}
	net.SetChannel(ProcMonitored, ProcMonitor, ch)

	collector := nekostat.NewCollector()

	// Monitored process: a one-member HeartbeaterGroup over SimCrash (Figure
	// 3, left).
	hb, err := layers.NewHeartbeaterGroup(cfg.Eta, ProcMonitor)
	if err != nil {
		return nil, nil, err
	}
	crash, err := layers.NewSimCrash(cfg.MTTC, cfg.TTR, sim.NewRNG(seed, "simcrash"), collector)
	if err != nil {
		return nil, nil, err
	}
	monitored, err := neko.NewProcess(ProcMonitored, eng, net, hb, crash)
	if err != nil {
		return nil, nil, err
	}

	// Monitor process: a delay recorder feeding the MultiPlexer, which
	// fans out to every detector (Figure 3, right). An optional clock-skew
	// layer sits beneath everything, shifting the monitor's view.
	mp := layers.NewMultiPlexer()
	rec, err := layers.NewDelayRecorder(func(_ int64, d time.Duration) {
		channelStats.Add(float64(d) / float64(time.Millisecond))
	})
	if err != nil {
		return nil, nil, err
	}
	monitorStack := []neko.Layer{mp, rec}
	if cfg.ClockSkew != 0 {
		monitorStack = append(monitorStack, layers.NewClockSkew(cfg.ClockSkew))
	}
	monitorProc, err := neko.NewProcess(ProcMonitor, eng, net, monitorStack...)
	if err != nil {
		return nil, nil, err
	}

	// With SchedulerTick set, detector deadlines run on a timing wheel
	// whose wakeups are engine events — the same wheel the real cluster
	// monitor drives from the wall clock.
	detClock := sim.Clock(eng)
	if cfg.SchedulerTick > 0 {
		detClock = sched.NewWheel(sched.Config{Clock: eng, Tick: cfg.SchedulerTick})
	}
	monitors, err := buildMonitors(cfg, detClock, collector)
	if err != nil {
		return nil, nil, err
	}
	ctx := &neko.Context{ID: ProcMonitor, Clock: eng}
	for _, m := range monitors {
		mp.AddUpper(m)
		if err := m.Init(ctx); err != nil {
			return nil, nil, err
		}
	}

	if err := monitorProc.Start(); err != nil {
		return nil, nil, err
	}
	if err := monitored.Start(); err != nil {
		return nil, nil, err
	}
	windowEnd := time.Duration(cfg.NumCycles) * cfg.Eta
	if err := eng.Run(windowEnd); err != nil {
		return nil, nil, err
	}
	monitored.Stop()
	monitorProc.Stop()
	for _, m := range monitors {
		m.Stop()
	}

	events := collector.Events()
	out := make(map[string]nekostat.QoS, len(monitors))
	for _, m := range monitors {
		name := m.Consumer().Name()
		q, err := nekostat.QoSFromEvents(events, name, cfg.Warmup, windowEnd)
		if err != nil {
			return nil, nil, fmt.Errorf("qos of %s: %w", name, err)
		}
		out[name] = q
	}
	if cfg.KeepEvents {
		return out, events, nil
	}
	return out, nil, nil
}

// buildMonitors instantiates the detector set for one run.
func buildMonitors(cfg QoSConfig, clock sim.Clock, l core.SuspicionListener) ([]*layers.Monitor, error) {
	var out []*layers.Monitor
	add := func(det *core.Detector, err error) error {
		if err != nil {
			return err
		}
		m, err := layers.NewMonitor(det)
		if err != nil {
			return err
		}
		out = append(out, m)
		return nil
	}
	for _, combo := range cfg.Combos {
		pred, margin, err := combo.Build()
		if err != nil {
			return nil, err
		}
		det, err := core.NewDetector(core.DetectorConfig{
			Name:      combo.Name(),
			Predictor: pred,
			Margin:    margin,
			Eta:       cfg.Eta,
			Clock:     clock,
			Listener:  l,
		})
		if err := add(det, err); err != nil {
			return nil, err
		}
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
		if err := add(core.NewNFDE(alpha, cfg.Eta, clock, l)); err != nil {
			return nil, err
		}
		if err := add(core.NewBertier(cfg.Eta, clock, l)); err != nil {
			return nil, err
		}
	}
	for _, th := range cfg.AccrualThresholds {
		acc, err := core.NewAccrualDetector(core.AccrualDetectorConfig{
			Threshold: th,
			Clock:     clock,
			Listener:  l,
		})
		if err != nil {
			return nil, err
		}
		m, err := layers.NewConsumerMonitor(acc)
		if err != nil {
			return nil, err
		}
		out = append(out, m)
	}
	if cfg.customDetectors != nil {
		dets, err := cfg.customDetectors(clock, l)
		if err != nil {
			return nil, err
		}
		for _, det := range dets {
			if err := add(det, nil); err != nil {
				return nil, err
			}
		}
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
