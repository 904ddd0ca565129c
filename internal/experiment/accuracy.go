// Package experiment assembles the paper's two experiments end to end:
// the predictor-accuracy experiment (§5.1, Table 3) and the failure-
// detector QoS experiment (§5.2, Figures 4–8), plus renderers that print
// the same tables and series the paper reports. Every virtual-time
// experiment runs on one two-process system (system.go) over one Table 5
// parameter block.
package experiment

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"wanfd/internal/core"
	"wanfd/internal/layers"
	"wanfd/internal/neko"
	"wanfd/internal/nekostat"
	"wanfd/internal/sim"
	"wanfd/internal/wan"
)

// AccuracyConfig parameterizes the predictor-accuracy experiment: collect
// the one-way delays of Samples successive heartbeats over the WAN channel
// and measure each predictor's one-step mean square error on that series.
type AccuracyConfig struct {
	// Samples is the number of heartbeats (paper: 100 000). Zero means
	// 100 000.
	Samples int
	// Eta is the sending period (paper: 1 s). Zero means 1 s.
	Eta time.Duration
	// Preset selects the WAN channel. Zero means the Italy–Japan preset.
	Preset wan.Preset
	// Seed drives the channel randomness.
	Seed int64
	// Warmup excludes the first predictions from the error (all
	// predictors bootstrap; ARIMA needs its first fit). Zero means 1 000.
	// Set to -1 to disable.
	Warmup int
	// Predictors names the predictors to evaluate. Nil means the paper's
	// five.
	Predictors []string
	// DelayTrace, when non-empty, replays a recorded delay trace instead
	// of sampling the preset channel (losslessly), for bit-identical
	// reruns.
	DelayTrace []time.Duration
}

func (c *AccuracyConfig) setDefaults() {
	if c.Samples == 0 {
		c.Samples = 100000
	}
	if c.Eta == 0 {
		c.Eta = time.Second
	}
	if c.Preset == 0 {
		c.Preset = wan.PresetItalyJapan
	}
	if c.Warmup == 0 {
		c.Warmup = 1000
	}
	if c.Warmup < 0 {
		c.Warmup = 0
	}
	if len(c.Predictors) == 0 {
		c.Predictors = append([]string(nil), core.PredictorNames...)
	}
}

// AccuracyRow is one predictor's accuracy result.
type AccuracyRow struct {
	// Predictor names the predictor.
	Predictor string
	// MSqErr is the mean square one-step prediction error in ms².
	MSqErr float64
}

// AccuracyResult is the outcome of the accuracy experiment.
type AccuracyResult struct {
	// Rows is sorted by ascending msqerr (most accurate first), the
	// ordering of the paper's Table 3.
	Rows []AccuracyRow
	// DelaysMs is the observed one-way delay series (ms), reusable for
	// the ARIMA order search.
	DelaysMs []float64
}

// RunAccuracy executes the accuracy experiment on a simulated two-layer
// Neko architecture (Heartbeater over the WAN into a delay recorder —
// exactly the simple stack the paper used), then replays the collected
// series through each predictor.
func RunAccuracy(cfg AccuracyConfig) (*AccuracyResult, error) {
	cfg.setDefaults()
	if cfg.Samples <= cfg.Warmup {
		return nil, fmt.Errorf("experiment: %d samples with warmup %d leaves nothing to score",
			cfg.Samples, cfg.Warmup)
	}

	delays, err := collectDelaySeries(cfg)
	if err != nil {
		return nil, err
	}
	if len(delays) <= cfg.Warmup {
		return nil, fmt.Errorf("experiment: only %d delays survived channel loss, warmup is %d",
			len(delays), cfg.Warmup)
	}

	res := &AccuracyResult{DelaysMs: delays}
	for _, name := range cfg.Predictors {
		pred, err := core.NewPredictorByName(name)
		if err != nil {
			return nil, err
		}
		mse, err := scorePredictor(pred, delays, cfg.Warmup)
		if err != nil {
			return nil, fmt.Errorf("score %s: %w", name, err)
		}
		res.Rows = append(res.Rows, AccuracyRow{Predictor: name, MSqErr: mse})
	}
	sort.Slice(res.Rows, func(i, j int) bool { return res.Rows[i].MSqErr < res.Rows[j].MSqErr })
	return res, nil
}

// collectDelaySeries runs the two-process heartbeat stack, with no crashes
// and a delay recorder on the monitor, over the configured channel and
// returns the observed one-way delays in arrival order, in milliseconds.
func collectDelaySeries(cfg AccuracyConfig) ([]float64, error) {
	ch, err := buildChannel(cfg.Preset, cfg.DelayTrace, cfg.Seed, "accuracy")
	if err != nil {
		return nil, err
	}
	var delays []float64
	_, err = system{
		// One cycle more than the samples lets the last heartbeat, sent at
		// (Samples-1)·η, arrive: the extra period covers the largest
		// channel delay.
		Table5: Table5{NumCycles: cfg.Samples + 1, Eta: cfg.Eta},
		fwd:    ch,
		monitor: func(*sim.Engine, *nekostat.Collector) ([]neko.Layer, error) {
			rec, err := layers.NewDelayRecorder(func(_ int64, d time.Duration) {
				delays = append(delays, float64(d)/float64(time.Millisecond))
			})
			if err != nil {
				return nil, err
			}
			return []neko.Layer{rec}, nil
		},
	}.run()
	if err != nil {
		return nil, err
	}
	// The horizon slack can let one extra heartbeat through; cap at the
	// requested sample count.
	if len(delays) > cfg.Samples {
		delays = delays[:cfg.Samples]
	}
	return delays, nil
}

// scorePredictor rolls a predictor through the delay series, scoring
// one-step predictions after the warmup.
func scorePredictor(pred core.Predictor, delays []float64, warmup int) (float64, error) {
	var sum float64
	var n int
	for i, obs := range delays {
		if i >= warmup {
			diff := pred.Predict() - obs
			sum += diff * diff
			n++
		}
		pred.Observe(obs)
	}
	if n == 0 {
		return 0, fmt.Errorf("experiment: no scored predictions")
	}
	return sum / float64(n), nil
}

// Table renders the result in the layout of the paper's Table 3.
func (r *AccuracyResult) Table() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-14s %14s\n", "Predictor", "msqerr (ms^2)")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%-14s %14.3f\n", row.Predictor, row.MSqErr)
	}
	return b.String()
}

// StabilityResult reports how stable the accuracy ranking is across
// independent channel realizations — the reproducibility check behind
// Table 3's headline ("ARIMA was the most accurate predictor in both
// cases").
type StabilityResult struct {
	// Seeds is the number of realizations evaluated.
	Seeds int
	// FirstPlaceCount maps predictor → number of seeds where it ranked
	// most accurate.
	FirstPlaceCount map[string]int
	// MeanRank maps predictor → average rank (1 = most accurate).
	MeanRank map[string]float64
}

// RunAccuracyStability repeats the accuracy experiment over several seeds
// and aggregates the ranking.
func RunAccuracyStability(cfg AccuracyConfig, seeds int) (*StabilityResult, error) {
	if seeds <= 0 {
		return nil, fmt.Errorf("experiment: need at least one seed, got %d", seeds)
	}
	res := &StabilityResult{
		Seeds:           seeds,
		FirstPlaceCount: make(map[string]int),
		MeanRank:        make(map[string]float64),
	}
	for s := 0; s < seeds; s++ {
		c := cfg
		c.Seed = cfg.Seed + int64(s)
		out, err := RunAccuracy(c)
		if err != nil {
			return nil, fmt.Errorf("seed %d: %w", c.Seed, err)
		}
		for rank, row := range out.Rows {
			if rank == 0 {
				res.FirstPlaceCount[row.Predictor]++
			}
			res.MeanRank[row.Predictor] += float64(rank + 1)
		}
	}
	for name := range res.MeanRank {
		res.MeanRank[name] /= float64(seeds)
	}
	return res, nil
}

// Table renders the stability result.
func (r *StabilityResult) Table() string {
	var names []string
	for name := range r.MeanRank {
		names = append(names, name)
	}
	sort.Slice(names, func(i, j int) bool { return r.MeanRank[names[i]] < r.MeanRank[names[j]] })
	var b strings.Builder
	fmt.Fprintf(&b, "%-10s %10s %12s   (over %d seeds)\n", "Predictor", "mean rank", "1st place", r.Seeds)
	for _, name := range names {
		fmt.Fprintf(&b, "%-10s %10.2f %11d×\n", name, r.MeanRank[name], r.FirstPlaceCount[name])
	}
	return b.String()
}
