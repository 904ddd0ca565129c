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

// SweepPoint is one margin-parameter setting's QoS.
type SweepPoint struct {
	// Param is the swept parameter value (γ for SM_CI, φ for SM_JAC).
	Param float64
	// QoS is the detector's pooled QoS at this setting.
	QoS nekostat.QoS
}

// SweepConfig parameterizes a margin-parameter sweep — the paper's §5.2
// tuning recipe made executable: "if T_MR needs to be much higher, work on
// the safety margin by increasing it until the desired T_MR is reached".
type SweepConfig struct {
	// Predictor names the fixed predictor (default LAST).
	Predictor string
	// MarginFamily is "CI" (sweep γ) or "JAC" (sweep φ).
	MarginFamily string
	// Params are the parameter values to sweep (default: the paper's
	// three plus extensions 0.5 and 6).
	Params []float64
	// Runs, NumCycles, Eta, MTTC, TTR, Preset, Seed as in QoSConfig
	// (zero values take the same defaults, scaled down to 2 runs).
	Runs      int
	NumCycles int
	Eta       time.Duration
	MTTC      time.Duration
	TTR       time.Duration
	Preset    wan.Preset
	Seed      int64
}

// RunMarginSweep evaluates the predictor with the margin family at every
// parameter value, all against identical streams (one shared run set).
func RunMarginSweep(cfg SweepConfig) ([]SweepPoint, error) {
	if cfg.Predictor == "" {
		cfg.Predictor = "LAST"
	}
	if cfg.MarginFamily == "" {
		cfg.MarginFamily = "CI"
	}
	if cfg.MarginFamily != "CI" && cfg.MarginFamily != "JAC" {
		return nil, fmt.Errorf("experiment: margin family %q, want CI or JAC", cfg.MarginFamily)
	}
	if len(cfg.Params) == 0 {
		cfg.Params = []float64{0.5, 1, 2, 3.31, 6}
	}
	for _, p := range cfg.Params {
		if p <= 0 {
			return nil, fmt.Errorf("experiment: non-positive sweep parameter %v", p)
		}
	}
	if cfg.Runs == 0 {
		cfg.Runs = 2
	}
	name := func(param float64) string {
		return fmt.Sprintf("%s_%s_%g", cfg.Predictor, cfg.MarginFamily, param)
	}

	// One detector per parameter value, all in the grid's one Monitor, so
	// every setting sees the same stream and the sweep is paired like the
	// paper's figures.
	res, err := runGrid(QoSConfig{
		Runs:   cfg.Runs,
		Table5: Table5{NumCycles: cfg.NumCycles, Eta: cfg.Eta, MTTC: cfg.MTTC, TTR: cfg.TTR, Seed: cfg.Seed},
		Preset: cfg.Preset,
	}, func(qc QoSConfig, clock sim.Clock, l core.SuspicionListener) ([]core.HeartbeatConsumer, error) {
		var out []core.HeartbeatConsumer
		for _, param := range cfg.Params {
			pred, err := core.NewPredictorByName(cfg.Predictor)
			if err != nil {
				return nil, err
			}
			var margin core.SafetyMargin
			if cfg.MarginFamily == "CI" {
				margin, err = core.NewSMCI(name(param), param)
			} else {
				margin, err = core.NewSMJAC(name(param), param, core.JacobsonAlpha)
			}
			if err != nil {
				return nil, err
			}
			det, err := core.NewDetector(core.DetectorConfig{
				Name:      name(param),
				Predictor: pred,
				Margin:    margin,
				Eta:       qc.Eta,
				Clock:     clock,
				Listener:  l,
			})
			if err != nil {
				return nil, err
			}
			out = append(out, det)
		}
		return out, nil
	})
	if err != nil {
		return nil, err
	}
	out := make([]SweepPoint, len(cfg.Params))
	for i, param := range cfg.Params {
		out[i] = SweepPoint{Param: param, QoS: res.ByDetector[name(param)]}
	}
	return out, nil
}

// SweepTable renders a sweep as a table: the tuning curve T_D/T_M/T_MR/P_A
// versus the margin parameter.
func SweepTable(family string, points []SweepPoint) string {
	var b strings.Builder
	param := "gamma"
	if family == "JAC" {
		param = "phi"
	}
	fmt.Fprintf(&b, "%-8s %10s %10s %12s %10s %9s\n", param, "T_D ms", "T_M ms", "T_MR ms", "P_A", "mistakes")
	for _, p := range points {
		fmt.Fprintf(&b, "%-8g %10.1f %10.1f %12.1f %10.6f %9d\n",
			p.Param, p.QoS.TD.Mean, p.QoS.TM.Mean, p.QoS.TMR.Mean, p.QoS.PA, p.QoS.Mistakes)
	}
	return b.String()
}
