package experiment

import (
	"fmt"

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
	// Table5 holds NumCycles, η, MTTC, TTR, Seed and Warmup as in
	// QoSConfig.
	Table5
	Preset wan.Preset
	Combo  core.Combo
}

func (c *PushPullConfig) setDefaults() {
	c.Table5.setDefaults()
	if c.Preset == 0 {
		c.Preset = wan.PresetItalyJapan
	}
	if c.Combo == (core.Combo{}) {
		c.Combo = core.Combo{Predictor: "LAST", Margin: "JAC_med"}
	}
}

// RunPushPull executes the comparison.
func RunPushPull(cfg PushPullConfig) (*PushPullComparison, error) {
	cfg.setDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
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

// runStyle runs the combination's detector push-style (a HeartbeaterGroup
// feeding a Monitor) or pull-style (a Puller pinging a Responder).
func runStyle(cfg PushPullConfig, pull bool) (*StyleResult, error) {
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
	s := system{Table5: cfg.Table5, fwd: fwd, rev: rev, crash: sim.NewRNG(cfg.Seed, "style/crash")}
	var messages func() uint64
	if pull {
		responder := layers.NewResponder()
		s.sender = responder
		s.monitor = func(eng *sim.Engine, l *nekostat.Collector) ([]neko.Layer, error) {
			det, err := comboDetector(cfg.Combo, cfg.Eta, eng, l)
			if err != nil {
				return nil, err
			}
			puller, err := layers.NewPuller(ProcMonitored, cfg.Eta, det)
			if err != nil {
				return nil, err
			}
			messages = func() uint64 { return puller.Pings() + responder.Replies() }
			return []neko.Layer{puller}, nil
		}
	} else {
		hb, err := layers.NewHeartbeaterGroup(cfg.Eta, ProcMonitor)
		if err != nil {
			return nil, err
		}
		s.sender, s.monitor, messages = hb, comboMonitor(cfg.Combo, cfg.Eta), hb.Sent
	}
	events, err := s.run()
	if err != nil {
		return nil, err
	}
	q, err := cfg.qos(events, cfg.Combo.Name())
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
