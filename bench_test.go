package wanfd

// Benchmark harness: one benchmark per table and figure of the paper's
// evaluation section, plus the §5.3 complexity micro-benchmarks. The
// table/figure benchmarks execute the corresponding (reduced) experiment
// per iteration and report the headline quantity via b.ReportMetric, so
// `go test -bench=. -benchmem` regenerates every reported number; the cmd/
// binaries print the full tables.

import (
	"testing"
	"time"

	"wanfd/internal/arima"
	"wanfd/internal/consensus"
	"wanfd/internal/core"
	"wanfd/internal/experiment"
	"wanfd/internal/sim"
	"wanfd/internal/wan"
)

// BenchmarkTable3PredictorAccuracy regenerates the predictor-accuracy
// ranking (Table 3). Reported metrics: msqerr of the best (ARIMA) and
// worst predictors.
func BenchmarkTable3PredictorAccuracy(b *testing.B) {
	var bestErr, worstErr float64
	for i := 0; i < b.N; i++ {
		res, err := experiment.RunAccuracy(experiment.AccuracyConfig{
			Samples: 20000,
			Seed:    int64(i) + 1,
		})
		if err != nil {
			b.Fatal(err)
		}
		bestErr = res.Rows[0].MSqErr
		worstErr = res.Rows[len(res.Rows)-1].MSqErr
	}
	b.ReportMetric(bestErr, "best-msqerr")
	b.ReportMetric(worstErr, "worst-msqerr")
}

// BenchmarkTable4WANCharacterization regenerates the channel
// characterization (Table 4). Reported metrics: mean/σ/max one-way delay
// (ms) and loss (%).
func BenchmarkTable4WANCharacterization(b *testing.B) {
	var c wan.Characterization
	for i := 0; i < b.N; i++ {
		ch, err := wan.NewPresetChannel(wan.PresetItalyJapan, int64(i)+1, "bench")
		if err != nil {
			b.Fatal(err)
		}
		c, err = wan.Characterize(ch, 100000, time.Second)
		if err != nil {
			b.Fatal(err)
		}
	}
	ms := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
	b.ReportMetric(ms(c.MeanDelay), "mean-ms")
	b.ReportMetric(ms(c.StdDevDelay), "stddev-ms")
	b.ReportMetric(ms(c.MaxDelay), "max-ms")
	b.ReportMetric(c.LossRate*100, "loss-%")
}

// benchQoS runs a reduced QoS experiment (1 run × 5000 cycles, all 30
// combinations) once per iteration and returns the final result.
func benchQoS(b *testing.B) *experiment.QoSResult {
	b.Helper()
	var res *experiment.QoSResult
	for i := 0; i < b.N; i++ {
		var err error
		res, err = experiment.RunQoS(experiment.QoSConfig{
			Runs:   1,
			Table5: experiment.Table5{NumCycles: 5000, Seed: int64(i) + 1},
		})
		if err != nil {
			b.Fatal(err)
		}
	}
	return res
}

// reportComboMetric reports the metric value of representative
// combinations: the paper's recommendation (LAST+JAC_med), the most
// accurate pairing (ARIMA+CI_low) and the slowest predictor (MEAN+CI_med).
func reportComboMetric(b *testing.B, res *experiment.QoSResult, m experiment.Metric) {
	b.Helper()
	for _, combo := range []core.Combo{
		{Predictor: "LAST", Margin: "JAC_med"},
		{Predictor: "ARIMA", Margin: "CI_low"},
		{Predictor: "MEAN", Margin: "CI_med"},
	} {
		if v, ok := res.ComboValue(m, combo.Predictor, combo.Margin); ok {
			b.ReportMetric(v, combo.Name())
		}
	}
}

// BenchmarkFigure4DetectionTime regenerates the mean detection time T_D.
func BenchmarkFigure4DetectionTime(b *testing.B) {
	reportComboMetric(b, benchQoS(b), experiment.MetricTD)
}

// BenchmarkFigure5MaxDetectionTime regenerates T_D^U.
func BenchmarkFigure5MaxDetectionTime(b *testing.B) {
	reportComboMetric(b, benchQoS(b), experiment.MetricTDU)
}

// BenchmarkFigure6MistakeDuration regenerates T_M.
func BenchmarkFigure6MistakeDuration(b *testing.B) {
	reportComboMetric(b, benchQoS(b), experiment.MetricTM)
}

// BenchmarkFigure7MistakeRecurrence regenerates T_MR.
func BenchmarkFigure7MistakeRecurrence(b *testing.B) {
	reportComboMetric(b, benchQoS(b), experiment.MetricTMR)
}

// BenchmarkFigure8QueryAccuracy regenerates P_A.
func BenchmarkFigure8QueryAccuracy(b *testing.B) {
	reportComboMetric(b, benchQoS(b), experiment.MetricPA)
}

// BenchmarkARIMAGridSearch regenerates the §5.1 order-selection procedure
// on a reduced grid, reporting the best order found.
func BenchmarkARIMAGridSearch(b *testing.B) {
	ch, err := wan.NewPresetChannel(wan.PresetItalyJapan, 1, "grid")
	if err != nil {
		b.Fatal(err)
	}
	delays, err := wan.CollectDelays(ch, 6000, time.Second)
	if err != nil {
		b.Fatal(err)
	}
	series := make([]float64, len(delays))
	for i, d := range delays {
		series[i] = float64(d) / float64(time.Millisecond)
	}
	b.ResetTimer()
	var best arima.Candidate
	for i := 0; i < b.N; i++ {
		cands, err := arima.Search(series, arima.SearchConfig{MaxP: 2, MaxD: 1, MaxQ: 1})
		if err != nil {
			b.Fatal(err)
		}
		best = cands[0]
	}
	b.ReportMetric(float64(best.P*100+best.D*10+best.Q), "best-pdq")
	b.ReportMetric(best.MSqErr, "msqerr")
}

// §5.3 complexity micro-benchmarks: every timeout computation method is
// O(1) per heartbeat. One op = observe one delay + produce one prediction
// or margin.

func benchPredictorStep(b *testing.B, name string) {
	b.Helper()
	pred, err := core.NewPredictorByName(name)
	if err != nil {
		b.Fatal(err)
	}
	rng := sim.NewRNG(1, "bench/"+name)
	// Pre-generate inputs so the RNG is not measured.
	delays := make([]float64, 4096)
	for i := range delays {
		delays[i] = 200 + 10*rng.NormFloat64()
	}
	b.ReportAllocs()
	b.ResetTimer()
	var sink float64
	for i := 0; i < b.N; i++ {
		pred.Observe(delays[i&4095])
		sink = pred.Predict()
	}
	_ = sink
}

func BenchmarkPredictorStepLAST(b *testing.B)    { benchPredictorStep(b, "LAST") }
func BenchmarkPredictorStepMEAN(b *testing.B)    { benchPredictorStep(b, "MEAN") }
func BenchmarkPredictorStepWINMEAN(b *testing.B) { benchPredictorStep(b, "WINMEAN") }
func BenchmarkPredictorStepLPF(b *testing.B)     { benchPredictorStep(b, "LPF") }

// BenchmarkPredictorStepARIMA includes the amortized cost of the periodic
// refit (every 1000 observations, as in the paper).
func BenchmarkPredictorStepARIMA(b *testing.B) { benchPredictorStep(b, "ARIMA") }

func benchMarginStep(b *testing.B, name string) {
	b.Helper()
	m, err := core.NewMarginByName(name)
	if err != nil {
		b.Fatal(err)
	}
	rng := sim.NewRNG(1, "bench/"+name)
	obs := make([]float64, 4096)
	for i := range obs {
		obs[i] = 200 + 10*rng.NormFloat64()
	}
	b.ReportAllocs()
	b.ResetTimer()
	var sink float64
	for i := 0; i < b.N; i++ {
		m.Observe(obs[i&4095], 200)
		sink = m.Margin()
	}
	_ = sink
}

func BenchmarkMarginStepCI(b *testing.B)  { benchMarginStep(b, "CI_med") }
func BenchmarkMarginStepJAC(b *testing.B) { benchMarginStep(b, "JAC_med") }

// BenchmarkDetectorOnHeartbeat measures the full per-heartbeat cost of the
// freshness-point engine (LAST+JAC_med, the paper's recommended detector).
func BenchmarkDetectorOnHeartbeat(b *testing.B) {
	eng := sim.NewEngine()
	pred, margin, err := (core.Combo{Predictor: "LAST", Margin: "JAC_med"}).Build()
	if err != nil {
		b.Fatal(err)
	}
	det, err := core.NewDetector(core.DetectorConfig{
		Predictor: pred,
		Margin:    margin,
		Eta:       time.Second,
		Clock:     eng,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		send := time.Duration(i) * time.Second
		det.OnHeartbeat(int64(i), send, send+200*time.Millisecond)
	}
}

// BenchmarkAblationEtaSweep measures how the detection time scales with
// the heartbeat period (a design-choice ablation: η trades bandwidth for
// detection latency linearly).
func BenchmarkAblationEtaSweep(b *testing.B) {
	for _, eta := range []time.Duration{250 * time.Millisecond, time.Second, 4 * time.Second} {
		eta := eta
		b.Run(eta.String(), func(b *testing.B) {
			var td float64
			for i := 0; i < b.N; i++ {
				res, err := experiment.RunQoS(experiment.QoSConfig{
					Runs:   1,
					Table5: experiment.Table5{NumCycles: int(2500 * time.Second / eta), Eta: eta, Seed: int64(i) + 1},
					Combos: []core.Combo{{Predictor: "LAST", Margin: "JAC_med"}},
				})
				if err != nil {
					b.Fatal(err)
				}
				td, _ = res.ComboValue(experiment.MetricTD, "LAST", "JAC_med")
			}
			b.ReportMetric(td, "TD-ms")
		})
	}
}

// BenchmarkAblationChannelSweep measures the recommended detector across
// the three channel presets (the paper's "other environments" future
// work).
func BenchmarkAblationChannelSweep(b *testing.B) {
	for _, preset := range []wan.Preset{wan.PresetLAN, wan.PresetItalyJapan, wan.PresetLossyMobile} {
		preset := preset
		b.Run(preset.String(), func(b *testing.B) {
			var td, pa float64
			for i := 0; i < b.N; i++ {
				res, err := experiment.RunQoS(experiment.QoSConfig{
					Runs:   1,
					Table5: experiment.Table5{NumCycles: 2500, Seed: int64(i) + 1},
					Preset: preset,
					Combos: []core.Combo{{Predictor: "LAST", Margin: "JAC_med"}},
				})
				if err != nil {
					b.Fatal(err)
				}
				td, _ = res.ComboValue(experiment.MetricTD, "LAST", "JAC_med")
				pa, _ = res.ComboValue(experiment.MetricPA, "LAST", "JAC_med")
			}
			b.ReportMetric(td, "TD-ms")
			b.ReportMetric(pa, "PA")
		})
	}
}

// BenchmarkPushVsPull regenerates the §2.2 interaction-style comparison:
// reported metrics are the two styles' message counts and detection times
// (same quality, half the messages for push).
func BenchmarkPushVsPull(b *testing.B) {
	var res *experiment.PushPullComparison
	for i := 0; i < b.N; i++ {
		var err error
		res, err = experiment.RunPushPull(experiment.PushPullConfig{
			Table5: experiment.Table5{NumCycles: 4000, Seed: int64(i) + 1},
		})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(res.Push.MessagesSent), "push-msgs")
	b.ReportMetric(float64(res.Pull.MessagesSent), "pull-msgs")
	b.ReportMetric(res.Push.QoS.TD.Mean, "push-TD-ms")
	b.ReportMetric(res.Pull.QoS.TD.Mean, "pull-TD-ms")
}

// BenchmarkConsensusCrashLatency measures the application-level consequence
// of detector QoS (the paper's reference [6]): mean consensus latency when
// the coordinator crashes mid-protocol, for a fast and a conservative
// detector.
func BenchmarkConsensusCrashLatency(b *testing.B) {
	for _, combo := range []core.Combo{
		{Predictor: "LAST", Margin: "JAC_low"},
		{Predictor: "MEAN", Margin: "CI_high"},
	} {
		combo := combo
		b.Run(combo.Name(), func(b *testing.B) {
			var latency time.Duration
			for i := 0; i < b.N; i++ {
				res, err := consensus.RunExperiment(consensus.ExperimentConfig{
					N:                  3,
					Combo:              combo,
					Eta:                time.Second,
					PollInterval:       5 * time.Millisecond,
					Seed:               int64(i) + 1,
					CoordinatorCrashAt: 100 * time.Millisecond,
				})
				if err != nil {
					b.Fatal(err)
				}
				if !res.Decided || !res.Agreement {
					b.Fatalf("consensus failed: %+v", res)
				}
				latency = res.Latency
			}
			b.ReportMetric(float64(latency)/float64(time.Millisecond), "latency-ms")
		})
	}
}

// BenchmarkAccrualVsPaper races the modern φ-accrual detector (thresholds
// 2 and 8) against the paper's recommended LAST+JAC_med on the same stream,
// reporting each one's detection time and mistake count.
func BenchmarkAccrualVsPaper(b *testing.B) {
	var res *experiment.QoSResult
	for i := 0; i < b.N; i++ {
		var err error
		res, err = experiment.RunQoS(experiment.QoSConfig{
			Runs:              1,
			Table5:            experiment.Table5{NumCycles: 5000, Seed: int64(i) + 1},
			Combos:            []core.Combo{{Predictor: "LAST", Margin: "JAC_med"}},
			AccrualThresholds: []float64{2, 8},
		})
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, name := range []string{"LAST+JAC_med", "ACCRUAL_2", "ACCRUAL_8"} {
		if q, ok := res.ByDetector[name]; ok {
			b.ReportMetric(q.TD.Mean, name+"-TD-ms")
			b.ReportMetric(float64(q.Mistakes), name+"-mistakes")
		}
	}
}

// BenchmarkSimulationThroughput measures raw engine throughput: simulated
// heartbeat cycles per second with the full 30-detector monitor.
func BenchmarkSimulationThroughput(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_, err := experiment.RunQoS(experiment.QoSConfig{
			Runs:   1,
			Table5: experiment.Table5{NumCycles: 2000, Seed: int64(i) + 1},
		})
		if err != nil {
			b.Fatal(err)
		}
	}
	cyclesPerOp := 2000.0 * 30 // cycles × detectors
	b.ReportMetric(cyclesPerOp, "detector-cycles/op")
}
