package wanfd

import (
	"time"

	"wanfd/internal/core"
	"wanfd/internal/experiment"
	"wanfd/internal/wan"
)

// ChannelPreset selects a calibrated WAN channel model for simulations.
type ChannelPreset int

// Channel presets.
const (
	// ChannelItalyJapan is the paper's Italy–Japan link (Table 4).
	ChannelItalyJapan ChannelPreset = iota + 1
	// ChannelLAN is a quiet local network.
	ChannelLAN
	// ChannelLossyMobile is a congested mobile-like path.
	ChannelLossyMobile
)

func (p ChannelPreset) preset() wan.Preset {
	switch p {
	case ChannelLAN:
		return wan.PresetLAN
	case ChannelLossyMobile:
		return wan.PresetLossyMobile
	default:
		return wan.PresetItalyJapan
	}
}

// AccuracyRow is one predictor's msqerr result (the paper's Table 3 rows).
type AccuracyRow struct {
	Predictor string
	// MSqErr is the one-step mean square prediction error in ms².
	MSqErr float64
}

// ReproduceAccuracy runs the paper's predictor-accuracy experiment (§5.1):
// samples heartbeat delays over the channel and scores each predictor's
// one-step forecasts, returning rows sorted most-accurate first. samples=0
// means the paper's 100 000; seed selects the channel realization.
func ReproduceAccuracy(preset ChannelPreset, samples int, seed int64) ([]AccuracyRow, error) {
	res, err := experiment.RunAccuracy(experiment.AccuracyConfig{
		Samples: samples,
		Preset:  preset.preset(),
		Seed:    seed,
	})
	if err != nil {
		return nil, err
	}
	out := make([]AccuracyRow, len(res.Rows))
	for i, r := range res.Rows {
		out[i] = AccuracyRow{Predictor: r.Predictor, MSqErr: r.MSqErr}
	}
	return out, nil
}

// QoSReport carries one detector's QoS over a reproduction run (all
// durations in milliseconds, as in the paper's figures).
type QoSReport struct {
	Detector string
	// MeanTD and MaxTD are T_D and T_D^U (Figures 4 and 5).
	MeanTD, MaxTD float64
	// MeanTM and MeanTMR are T_M and T_MR (Figures 6 and 7).
	MeanTM, MeanTMR float64
	// PA is the query accuracy probability (Figure 8).
	PA float64
	// Crashes, Detected, Missed and Mistakes are diagnostic counts.
	Crashes, Detected, Missed, Mistakes int
}

// QoSOptions parameterizes ReproduceQoS. The zero value reproduces the
// paper's setup: 13 runs × ~10 000 cycles, η = 1 s, MTTC = 300 s,
// TTR = 30 s, Italy–Japan channel, all 30 combinations.
type QoSOptions struct {
	Runs      int
	NumCycles int
	Eta       time.Duration
	MTTC      time.Duration
	TTR       time.Duration
	Preset    ChannelPreset
	Seed      int64
	// Combos restricts the detector set (nil means all 30).
	Combos []Combination
	// Baselines adds NFD-E and Bertier.
	Baselines bool
}

// ReproduceQoS runs the paper's QoS experiment (§5.2) and returns one
// report per detector, in the paper's figure order.
func ReproduceQoS(opts QoSOptions) ([]QoSReport, error) {
	var combos []core.Combo
	for _, c := range opts.Combos {
		combos = append(combos, core.Combo{Predictor: c.Predictor, Margin: c.Margin})
	}
	preset := wan.Preset(0)
	if opts.Preset != 0 {
		preset = opts.Preset.preset()
	}
	res, err := experiment.RunQoS(experiment.QoSConfig{
		Runs:      opts.Runs,
		Table5:    experiment.Table5{NumCycles: opts.NumCycles, Eta: opts.Eta, MTTC: opts.MTTC, TTR: opts.TTR, Seed: opts.Seed},
		Preset:    preset,
		Combos:    combos,
		Baselines: opts.Baselines,
	})
	if err != nil {
		return nil, err
	}
	out := make([]QoSReport, 0, len(res.Order))
	for _, name := range res.Order {
		q, ok := res.ByDetector[name]
		if !ok {
			continue
		}
		out = append(out, QoSReport{
			Detector: name,
			MeanTD:   q.TD.Mean,
			MaxTD:    q.TDU,
			MeanTM:   q.TM.Mean,
			MeanTMR:  q.TMR.Mean,
			PA:       q.PA,
			Crashes:  q.Crashes,
			Detected: q.Detected,
			Missed:   q.Missed,
			Mistakes: q.Mistakes,
		})
	}
	return out, nil
}

// ChannelCharacterization summarizes a channel the way the paper's Table 4
// characterizes the Italy–Japan connection.
type ChannelCharacterization struct {
	MeanDelay, StdDevDelay, MinDelay, MaxDelay time.Duration
	LossRate                                   float64
	Samples                                    int
}

// CharacterizeChannel samples n heartbeats (0 means 100 000) at 1 s spacing
// from the preset channel and summarizes delay and loss.
func CharacterizeChannel(preset ChannelPreset, n int, seed int64) (ChannelCharacterization, error) {
	if n == 0 {
		n = 100000
	}
	ch, err := wan.NewPresetChannel(preset.preset(), seed, "characterize")
	if err != nil {
		return ChannelCharacterization{}, err
	}
	c, err := wan.Characterize(ch, n, time.Second)
	if err != nil {
		return ChannelCharacterization{}, err
	}
	return ChannelCharacterization{
		MeanDelay:   c.MeanDelay,
		StdDevDelay: c.StdDevDelay,
		MinDelay:    c.MinDelay,
		MaxDelay:    c.MaxDelay,
		LossRate:    c.LossRate,
		Samples:     c.Samples,
	}, nil
}
