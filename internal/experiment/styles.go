package experiment

import (
	"fmt"
	"time"

	"wanfd/internal/core"
	"wanfd/internal/layers"
	"wanfd/internal/neko"
	"wanfd/internal/nekostat"
	"wanfd/internal/sim"
	"wanfd/internal/wan"
)

// StyleResult reports one interaction style's outcome in the push-vs-pull
// comparison.
type StyleResult struct {
	// QoS is the detector's measured QoS.
	QoS nekostat.QoS
	// MessagesSent counts every protocol message offered to the network
	// by both processes (heartbeats for push; pings + pongs for pull).
	MessagesSent uint64
}

// PushPullComparison is the §2.2 experiment: the same detector combination
// monitored over the same channel realization, once push-style (heartbeats)
// and once pull-style (request/response), with the total message cost
// counted. The paper's argument: for continuous monitoring, push obtains
// the same quality of detection with half the messages.
type PushPullComparison struct {
	Push, Pull StyleResult
}

// PushPullConfig parameterizes the comparison. Zero values default to the
// paper's parameters (η = 1 s, MTTC = 300 s, TTR = 30 s, Italy–Japan).
type PushPullConfig struct {
	NumCycles int
	Eta       time.Duration
	MTTC      time.Duration
	TTR       time.Duration
	Preset    wan.Preset
	Seed      int64
	Combo     core.Combo
	Warmup    time.Duration
}

func (c *PushPullConfig) setDefaults() {
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
	if c.Combo == (core.Combo{}) {
		c.Combo = core.Combo{Predictor: "LAST", Margin: "JAC_med"}
	}
	if c.Warmup == 0 {
		c.Warmup = 60 * time.Second
	}
}

// RunPushPull executes the comparison.
func RunPushPull(cfg PushPullConfig) (*PushPullComparison, error) {
	cfg.setDefaults()
	window := time.Duration(cfg.NumCycles) * cfg.Eta
	if window <= cfg.Warmup {
		return nil, fmt.Errorf("experiment: run length %v not longer than warmup %v", window, cfg.Warmup)
	}
	push, err := runStyle(cfg, false)
	if err != nil {
		return nil, fmt.Errorf("push style: %w", err)
	}
	pull, err := runStyle(cfg, true)
	if err != nil {
		return nil, fmt.Errorf("pull style: %w", err)
	}
	return &PushPullComparison{Push: *push, Pull: *pull}, nil
}

func runStyle(cfg PushPullConfig, pull bool) (*StyleResult, error) {
	eng := sim.NewEngine()
	net, err := neko.NewSimNetwork(eng, nil)
	if err != nil {
		return nil, err
	}
	// Both directions get identically-seeded channels so the two styles
	// face the same network; stream names keep directions independent.
	fwd, err := wan.NewPresetChannel(cfg.Preset, cfg.Seed, "style/fwd")
	if err != nil {
		return nil, err
	}
	rev, err := wan.NewPresetChannel(cfg.Preset, cfg.Seed, "style/rev")
	if err != nil {
		return nil, err
	}
	net.SetChannel(ProcMonitored, ProcMonitor, fwd)
	net.SetChannel(ProcMonitor, ProcMonitored, rev)

	collector := nekostat.NewCollector()
	pred, margin, err := cfg.Combo.Build()
	if err != nil {
		return nil, err
	}
	det, err := core.NewDetector(core.DetectorConfig{
		Name:      cfg.Combo.Name(),
		Predictor: pred,
		Margin:    margin,
		Eta:       cfg.Eta,
		Clock:     eng,
		Listener:  collector,
	})
	if err != nil {
		return nil, err
	}

	crash, err := layers.NewSimCrash(cfg.MTTC, cfg.TTR, sim.NewRNG(cfg.Seed, "style/crash"), collector)
	if err != nil {
		return nil, err
	}

	var monitored, monitor *neko.Process
	var messages func() uint64
	if pull {
		responder := layers.NewResponder()
		monitored, err = neko.NewProcess(ProcMonitored, eng, net, responder, crash)
		if err != nil {
			return nil, err
		}
		puller, err := layers.NewPuller(ProcMonitored, cfg.Eta, det)
		if err != nil {
			return nil, err
		}
		monitor, err = neko.NewProcess(ProcMonitor, eng, net, puller)
		if err != nil {
			return nil, err
		}
		messages = func() uint64 { return puller.Pings() + responder.Replies() }
	} else {
		hb, err := layers.NewHeartbeaterGroup(cfg.Eta, ProcMonitor)
		if err != nil {
			return nil, err
		}
		monitored, err = neko.NewProcess(ProcMonitored, eng, net, hb, crash)
		if err != nil {
			return nil, err
		}
		mon, err := layers.NewMonitor(det)
		if err != nil {
			return nil, err
		}
		monitor, err = neko.NewProcess(ProcMonitor, eng, net, mon)
		if err != nil {
			return nil, err
		}
		messages = func() uint64 { return hb.Sent() }
	}

	if err := monitor.Start(); err != nil {
		return nil, err
	}
	if err := monitored.Start(); err != nil {
		return nil, err
	}
	window := time.Duration(cfg.NumCycles) * cfg.Eta
	if err := eng.Run(window); err != nil {
		return nil, err
	}
	monitored.Stop()
	monitor.Stop()

	q, err := nekostat.QoSFromEvents(collector.Events(), cfg.Combo.Name(), cfg.Warmup, window)
	if err != nil {
		return nil, err
	}
	return &StyleResult{QoS: q, MessagesSent: messages()}, nil
}

// Report renders the comparison.
func (c *PushPullComparison) Report() string {
	line := func(label string, s StyleResult) string {
		return fmt.Sprintf("%-5s messages %8d  T_D %8.1f ms  T_D^U %8.1f ms  T_M %7.1f ms  T_MR %9.1f ms  P_A %.6f  mistakes %d\n",
			label, s.MessagesSent, s.QoS.TD.Mean, s.QoS.TDU, s.QoS.TM.Mean, s.QoS.TMR.Mean, s.QoS.PA, s.QoS.Mistakes)
	}
	return "Push vs pull (same combination, same channel realization)\n" +
		line("push", c.Push) + line("pull", c.Pull)
}
