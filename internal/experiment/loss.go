package experiment

import (
	"fmt"
	"strings"
	"time"

	"wanfd/internal/core"
	"wanfd/internal/nekostat"
	"wanfd/internal/sim"
	"wanfd/internal/wan"
)

// LossPoint is one loss rate's QoS.
type LossPoint struct {
	// LossProb is the per-message loss probability.
	LossProb float64
	// QoS is the detector's QoS at this loss rate.
	QoS nekostat.QoS
}

// LossSweepConfig parameterizes the loss ablation: the same detector and
// delay process, with only the channel's loss probability varying — the
// paper names loss as one of the two WAN hazards (with delay variability),
// and a lost heartbeat is indistinguishable from a late one, so every loss
// is a candidate mistake.
type LossSweepConfig struct {
	// Combo selects the detector (default LAST+JAC_med).
	Combo core.Combo
	// LossProbs are the loss probabilities to sweep (default 0, 0.001,
	// 0.01, 0.05).
	LossProbs []float64
	// Table5 holds NumCycles, η, MTTC, TTR, Seed and Warmup as in
	// QoSConfig (zero → defaults, one run per point).
	Table5
}

// RunLossSweep evaluates the detector at every loss rate. Each point uses
// an identically-seeded delay process; only the loss draw differs.
func RunLossSweep(cfg LossSweepConfig) ([]LossPoint, error) {
	if cfg.Combo == (core.Combo{}) {
		cfg.Combo = core.Combo{Predictor: "LAST", Margin: "JAC_med"}
	}
	if len(cfg.LossProbs) == 0 {
		cfg.LossProbs = []float64{0, 0.001, 0.01, 0.05}
	}
	cfg.setDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	for _, p := range cfg.LossProbs {
		if p < 0 || p >= 1 {
			return nil, fmt.Errorf("experiment: loss probability %v out of [0,1)", p)
		}
	}
	out := make([]LossPoint, 0, len(cfg.LossProbs))
	for _, p := range cfg.LossProbs {
		q, err := runLossPoint(cfg, p)
		if err != nil {
			return nil, fmt.Errorf("loss %v: %w", p, err)
		}
		out = append(out, LossPoint{LossProb: p, QoS: q})
	}
	return out, nil
}

func runLossPoint(cfg LossSweepConfig, lossProb float64) (nekostat.QoS, error) {
	// The delay process is seeded identically for every point; only the
	// loss model changes.
	delay, err := wan.NewAR1GammaDelay(wan.AR1GammaConfig{
		Base:       192 * time.Millisecond,
		Rho:        0.6,
		GammaShape: 2.25,
		GammaScale: 2.667,
	}, sim.NewRNG(cfg.Seed, "loss-sweep/delay"))
	if err != nil {
		return nekostat.QoS{}, err
	}
	var loss wan.LossModel
	if lossProb > 0 {
		loss, err = wan.NewBernoulliLoss(lossProb, sim.NewRNG(cfg.Seed, "loss-sweep/loss"))
		if err != nil {
			return nekostat.QoS{}, err
		}
	}
	ch, err := wan.NewChannel(wan.ChannelConfig{Delay: delay, Loss: loss})
	if err != nil {
		return nekostat.QoS{}, err
	}
	events, err := system{
		Table5:  cfg.Table5,
		fwd:     ch,
		crash:   sim.NewRNG(cfg.Seed, "loss-sweep/crash"),
		monitor: comboMonitor(cfg.Combo, cfg.Eta),
	}.run()
	if err != nil {
		return nekostat.QoS{}, err
	}
	return cfg.qos(events, cfg.Combo.Name())
}

// LossSweepTable renders the sweep.
func LossSweepTable(points []LossPoint) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-8s %10s %10s %12s %10s %9s\n", "loss", "T_D ms", "T_M ms", "T_MR ms", "P_A", "mistakes")
	for _, p := range points {
		fmt.Fprintf(&b, "%-8.3f %10.1f %10.1f %12.1f %10.6f %9d\n",
			p.LossProb, p.QoS.TD.Mean, p.QoS.TM.Mean, p.QoS.TMR.Mean, p.QoS.PA, p.QoS.Mistakes)
	}
	return b.String()
}
