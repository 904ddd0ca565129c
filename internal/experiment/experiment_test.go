package experiment

import (
	"strings"
	"testing"
	"time"

	"wanfd/internal/core"
	"wanfd/internal/nekostat"
	"wanfd/internal/wan"
)

func TestRunAccuracySmall(t *testing.T) {
	res, err := RunAccuracy(AccuracyConfig{Samples: 5000, Seed: 7, Warmup: 500})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 5 {
		t.Fatalf("rows = %d, want 5 predictors", len(res.Rows))
	}
	for i := 1; i < len(res.Rows); i++ {
		if res.Rows[i-1].MSqErr > res.Rows[i].MSqErr {
			t.Errorf("rows not sorted by msqerr: %v", res.Rows)
		}
	}
	for _, row := range res.Rows {
		if row.MSqErr <= 0 {
			t.Errorf("%s msqerr = %v, want positive", row.Predictor, row.MSqErr)
		}
	}
	if len(res.DelaysMs) < 4900 {
		t.Errorf("collected %d delays, want ≈5000 (loss <1%%)", len(res.DelaysMs))
	}
	if !strings.Contains(res.Table(), "msqerr") {
		t.Error("table rendering missing header")
	}
}

// The central claim of Table 3: on the correlated WAN channel the ARIMA
// predictor is the most accurate, and in particular beats MEAN and LAST.
func TestAccuracyARIMAMostAccurate(t *testing.T) {
	res, err := RunAccuracy(AccuracyConfig{Samples: 20000, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	rank := make(map[string]int, len(res.Rows))
	mse := make(map[string]float64, len(res.Rows))
	for i, row := range res.Rows {
		rank[row.Predictor] = i
		mse[row.Predictor] = row.MSqErr
	}
	if rank["ARIMA"] != 0 {
		t.Errorf("ARIMA rank %d (mse %v), want most accurate; full: %v",
			rank["ARIMA"], mse["ARIMA"], res.Rows)
	}
	if !(mse["ARIMA"] < mse["MEAN"]) || !(mse["ARIMA"] < mse["LAST"]) {
		t.Errorf("ARIMA (%v) should beat MEAN (%v) and LAST (%v)",
			mse["ARIMA"], mse["MEAN"], mse["LAST"])
	}
}

func TestRunAccuracyValidation(t *testing.T) {
	if _, err := RunAccuracy(AccuracyConfig{Samples: 100, Warmup: 200}); err == nil {
		t.Error("warmup >= samples should be rejected")
	}
	if _, err := RunAccuracy(AccuracyConfig{Samples: 2000, Predictors: []string{"NOPE"}}); err == nil {
		t.Error("unknown predictor should be rejected")
	}
}

func TestQoSConfigValidation(t *testing.T) {
	if _, err := RunQoS(QoSConfig{Runs: -1}); err == nil {
		t.Error("negative runs should be rejected")
	}
	if _, err := RunQoS(QoSConfig{Table5: Table5{NumCycles: 10, Warmup: time.Hour}}); err == nil {
		t.Error("warmup longer than run should be rejected")
	}
}

// TestTable5ErrorsAreShared gives every experiment that runs a Table 5
// block the same bad block and expects the block's one validation error,
// returned before any run starts.
func TestTable5ErrorsAreShared(t *testing.T) {
	for _, bad := range []Table5{
		{NumCycles: 10}, // a 10 s run is no longer than the 60 s warm-up
		{Eta: -time.Second},
		{MTTC: -time.Second},
		{TTR: -time.Second},
		{NumCycles: -5},
	} {
		want := bad
		want.setDefaults()
		wantErr := want.validate()
		if wantErr == nil {
			t.Fatalf("%+v validates", bad)
		}
		for _, mode := range []struct {
			name string
			run  func() error
		}{
			{"qos", func() error {
				_, err := RunQoS(QoSConfig{Table5: bad})
				return err
			}},
			{"margin sweep", func() error {
				_, err := RunMarginSweep(SweepConfig{NumCycles: bad.NumCycles, Eta: bad.Eta, MTTC: bad.MTTC, TTR: bad.TTR})
				return err
			}},
			{"loss sweep", func() error {
				_, err := RunLossSweep(LossSweepConfig{Table5: bad})
				return err
			}},
			{"push/pull", func() error {
				_, err := RunPushPull(PushPullConfig{Table5: bad})
				return err
			}},
		} {
			if err := mode.run(); err == nil || err.Error() != wantErr.Error() {
				t.Errorf("%s with %+v: error %v, want %v", mode.name, bad, err, wantErr)
			}
		}
	}
}

func TestQoSParamsTableDefaults(t *testing.T) {
	out := QoSConfig{}.ParamsTable()
	for _, want := range []string{"5m0s", "30s", "1s", "13", "10000", "italy-japan"} {
		if !strings.Contains(out, want) {
			t.Errorf("params table missing %q:\n%s", want, out)
		}
	}
}

// smallQoS runs a reduced version of the paper's experiment: fewer cycles
// and runs, shorter MTTC so several crashes land in the window, but the
// full 30-combination detector set.
func smallQoS(t *testing.T, combos []core.Combo, baselines bool) *QoSResult {
	t.Helper()
	res, err := RunQoS(QoSConfig{
		Runs:      2,
		Table5:    Table5{NumCycles: 10000, MTTC: 300 * time.Second, TTR: 30 * time.Second, Seed: 11},
		Combos:    combos,
		Baselines: baselines,
	})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestRunQoSSmallFullSet(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-run QoS experiment")
	}
	res := smallQoS(t, nil, true)
	if len(res.ByDetector) != 32 { // 30 combos + 2 baselines
		t.Fatalf("detectors = %d, want 32", len(res.ByDetector))
	}
	if len(res.Order) != 32 {
		t.Fatalf("order = %d, want 32", len(res.Order))
	}
	// Every detector must have detected at least one crash.
	for name, q := range res.ByDetector {
		if q.Crashes == 0 {
			t.Errorf("%s observed no crashes", name)
		}
		if q.Detected == 0 {
			t.Errorf("%s detected no crashes (missed %d of %d)", name, q.Missed, q.Crashes)
		}
	}
	// All figures render with numbers for at least the delay metrics.
	for _, m := range AllMetrics {
		out := res.FigureTable(m)
		if !strings.Contains(out, "ARIMA") || !strings.Contains(out, "JAC_high") {
			t.Errorf("figure %d table incomplete:\n%s", m.FigureNumber(), out)
		}
	}
	if !strings.Contains(res.Report(), "Diagnostics") {
		t.Error("report missing diagnostics")
	}

	// Paper shape (Figures 4/5): MEAN is the slowest predictor — it has
	// the largest mean detection time for every safety margin.
	for _, margin := range core.MarginNames {
		meanTD, ok := res.ComboValue(MetricTD, "MEAN", margin)
		if !ok {
			t.Errorf("no T_D for MEAN+%s", margin)
			continue
		}
		for _, pred := range core.PredictorNames {
			if pred == "MEAN" {
				continue
			}
			v, ok := res.ComboValue(MetricTD, pred, margin)
			if !ok {
				continue
			}
			if v > meanTD {
				t.Errorf("T_D(%s+%s)=%v exceeds T_D(MEAN+%s)=%v — paper shape violated",
					pred, margin, v, margin, meanTD)
			}
		}
	}

	// Paper shape: γ ↑ in SM_CI ⇒ detection time ↑ for every predictor.
	for _, pred := range core.PredictorNames {
		lo, okLo := res.ComboValue(MetricTD, pred, "CI_low")
		hi, okHi := res.ComboValue(MetricTD, pred, "CI_high")
		if okLo && okHi && hi < lo {
			t.Errorf("T_D(%s+CI_high)=%v < T_D(%s+CI_low)=%v — γ ordering violated", pred, hi, pred, lo)
		}
	}

	// BestCombo works for every metric.
	for _, m := range AllMetrics {
		if _, _, err := res.BestCombo(m); err != nil {
			t.Errorf("BestCombo(%s): %v", m, err)
		}
	}

	// Paper shape: T_M and T_MR are strongly correlated across detectors.
	corr, err := res.AccuracyCorrelation()
	if err != nil {
		t.Fatalf("accuracy correlation: %v", err)
	}
	if corr < 0.5 {
		t.Errorf("corr(T_M, T_MR) = %.3f, want strongly positive", corr)
	}
}

func TestRunQoSDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-run QoS experiment")
	}
	combos := []core.Combo{{Predictor: "LAST", Margin: "JAC_med"}}
	run := func() *QoSResult {
		res, err := RunQoS(QoSConfig{
			Runs:   1,
			Table5: Table5{NumCycles: 1500, MTTC: 150 * time.Second, TTR: 15 * time.Second, Seed: 5},
			Combos: combos,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	qa, qb := a.ByDetector["LAST+JAC_med"], b.ByDetector["LAST+JAC_med"]
	if qa.TD.Mean != qb.TD.Mean || qa.Mistakes != qb.Mistakes || qa.PA != qb.PA {
		t.Errorf("experiment not deterministic: %+v vs %+v", qa, qb)
	}
}

func TestRunQoSLANPresetFastAndClean(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-run QoS experiment")
	}
	res, err := RunQoS(QoSConfig{
		Runs:   1,
		Table5: Table5{NumCycles: 1500, MTTC: 150 * time.Second, TTR: 15 * time.Second, Seed: 5},
		Preset: wan.PresetLAN,
		Combos: []core.Combo{{Predictor: "LAST", Margin: "JAC_med"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	q := res.ByDetector["LAST+JAC_med"]
	if q.Detected == 0 {
		t.Error("no detection on LAN preset")
	}
	// On a quiet LAN, detection is fast: T_D ≈ η plus a few ms.
	if q.TD.Mean > 1500 {
		t.Errorf("LAN T_D = %v ms, want ≈ η", q.TD.Mean)
	}
}

func TestMetricHelpers(t *testing.T) {
	for _, m := range AllMetrics {
		if m.String() == "unknown" || m.FigureNumber() == 0 || m.Title() == "unknown metric" {
			t.Errorf("metric %d helpers incomplete", m)
		}
		if m.BetterDirection() == "" {
			t.Errorf("metric %v missing direction", m)
		}
	}
	bad := Metric(99)
	if bad.String() != "unknown" || bad.FigureNumber() != 0 {
		t.Error("unknown metric helpers wrong")
	}
	if _, ok := bad.Value(nekostat.QoS{}); ok {
		t.Error("unknown metric should report no value")
	}
}

func TestRunQoSWithAccrualThresholds(t *testing.T) {
	res, err := RunQoS(QoSConfig{
		Runs:              2,
		Table5:            Table5{NumCycles: 4000, MTTC: 200 * time.Second, TTR: 20 * time.Second, Seed: 17},
		Combos:            []core.Combo{{Predictor: "LAST", Margin: "JAC_med"}},
		AccrualThresholds: []float64{2, 8},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Order) != 3 {
		t.Fatalf("order = %v, want combo + 2 accrual detectors", res.Order)
	}
	lo, ok := res.ByDetector["ACCRUAL_2"]
	if !ok {
		t.Fatal("ACCRUAL_2 missing")
	}
	hi, ok := res.ByDetector["ACCRUAL_8"]
	if !ok {
		t.Fatal("ACCRUAL_8 missing")
	}
	for name, q := range map[string]nekostat.QoS{"ACCRUAL_2": lo, "ACCRUAL_8": hi} {
		if q.Crashes == 0 || q.Detected != q.Crashes {
			t.Errorf("%s missed crashes: %+v", name, q)
		}
	}
	// The φ threshold is the speed/accuracy knob: higher θ detects later
	// and makes fewer mistakes.
	if !(lo.TD.Mean < hi.TD.Mean) {
		t.Errorf("T_D: ACCRUAL_2 %v should beat ACCRUAL_8 %v", lo.TD.Mean, hi.TD.Mean)
	}
	if !(lo.Mistakes > hi.Mistakes) {
		t.Errorf("mistakes: ACCRUAL_2 %d should exceed ACCRUAL_8 %d", lo.Mistakes, hi.Mistakes)
	}
	// CSV includes the accrual rows.
	if !strings.Contains(res.CSV(), "ACCRUAL_8,") {
		t.Error("CSV missing accrual rows")
	}
}

func TestFigureTableCI(t *testing.T) {
	res, err := RunQoS(QoSConfig{
		Runs:   2,
		Table5: Table5{NumCycles: 3000, MTTC: 150 * time.Second, TTR: 15 * time.Second, Seed: 19},
		Combos: []core.Combo{{Predictor: "LAST", Margin: "JAC_med"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	out := res.FigureTableCI(MetricTD)
	if !strings.Contains(out, "±") || !strings.Contains(out, "95% CI") {
		t.Errorf("CI table missing ± rendering:\n%s", out)
	}
	// Metrics without raw samples fall back to the plain table.
	if strings.Contains(res.FigureTableCI(MetricPA), "±") {
		t.Error("P_A should not render a CI")
	}
}

func TestFigurePlotAndKeepEvents(t *testing.T) {
	res, err := RunQoS(QoSConfig{
		Runs:       2,
		Table5:     Table5{NumCycles: 3000, MTTC: 150 * time.Second, TTR: 15 * time.Second, Seed: 23},
		Combos:     []core.Combo{{Predictor: "LAST", Margin: "JAC_med"}, {Predictor: "MEAN", Margin: "CI_high"}},
		KeepEvents: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	plot := res.FigurePlot(MetricTD)
	if !strings.Contains(plot, "LAST") || !strings.Contains(plot, "=") {
		t.Errorf("plot incomplete:\n%s", plot)
	}
	if !strings.Contains(res.FigurePlot(MetricPA), "0.9") {
		t.Errorf("PA plot missing values")
	}
	if len(res.RunEvents) != 2 {
		t.Fatalf("run events = %d, want 2", len(res.RunEvents))
	}
	for i, evs := range res.RunEvents {
		if len(evs) == 0 {
			t.Errorf("run %d has no events", i)
		}
	}
	// The exported timelines recompute to the same QoS.
	q, err := nekostat.QoSFromEvents(res.RunEvents[0], "LAST+JAC_med", 60*time.Second, 3000*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if q.Crashes == 0 {
		t.Error("recomputed QoS has no crashes")
	}
}

func TestRunMarginSweep(t *testing.T) {
	points, err := RunMarginSweep(SweepConfig{
		Predictor:    "LAST",
		MarginFamily: "CI",
		Params:       []float64{0.5, 2, 6},
		Runs:         2,
		NumCycles:    4000,
		MTTC:         200 * time.Second,
		TTR:          20 * time.Second,
		Seed:         29,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 3 {
		t.Fatalf("points = %d, want 3", len(points))
	}
	// The paper's tuning recipe: a larger margin parameter buys mistake
	// recurrence with detection time — both curves monotone.
	for i := 1; i < len(points); i++ {
		if points[i].QoS.TD.Mean <= points[i-1].QoS.TD.Mean {
			t.Errorf("T_D not increasing with gamma: %v -> %v",
				points[i-1].QoS.TD.Mean, points[i].QoS.TD.Mean)
		}
		if points[i].QoS.Mistakes >= points[i-1].QoS.Mistakes {
			t.Errorf("mistakes not decreasing with gamma: %d -> %d",
				points[i-1].QoS.Mistakes, points[i].QoS.Mistakes)
		}
	}
	out := SweepTable("CI", points)
	if !strings.Contains(out, "gamma") || !strings.Contains(out, "0.5") {
		t.Errorf("table incomplete:\n%s", out)
	}
}

func TestRunMarginSweepJAC(t *testing.T) {
	points, err := RunMarginSweep(SweepConfig{
		Predictor:    "LAST",
		MarginFamily: "JAC",
		Params:       []float64{1, 4},
		Runs:         1,
		NumCycles:    3000,
		MTTC:         200 * time.Second,
		TTR:          20 * time.Second,
		Seed:         29,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 2 {
		t.Fatalf("points = %d", len(points))
	}
	if points[1].QoS.Mistakes >= points[0].QoS.Mistakes {
		t.Errorf("phi=4 mistakes %d should be below phi=1's %d",
			points[1].QoS.Mistakes, points[0].QoS.Mistakes)
	}
	if !strings.Contains(SweepTable("JAC", points), "phi") {
		t.Error("JAC table should be labeled phi")
	}
}

func TestRunMarginSweepValidation(t *testing.T) {
	if _, err := RunMarginSweep(SweepConfig{MarginFamily: "NOPE"}); err == nil {
		t.Error("unknown family should be rejected")
	}
	if _, err := RunMarginSweep(SweepConfig{Params: []float64{-1}}); err == nil {
		t.Error("negative parameter should be rejected")
	}
}

func TestRunQoSClockSkew(t *testing.T) {
	run := func(skew time.Duration) nekostat.QoS {
		t.Helper()
		res, err := RunQoS(QoSConfig{
			Runs:      2,
			Table5:    Table5{NumCycles: 4000, MTTC: 200 * time.Second, TTR: 20 * time.Second, Seed: 37},
			Combos:    []core.Combo{{Predictor: "LAST", Margin: "JAC_med"}},
			ClockSkew: skew,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res.ByDetector["LAST+JAC_med"]
	}
	sync := run(0)
	ahead := run(100 * time.Millisecond)
	behind := run(-100 * time.Millisecond)

	// The adaptive detectors are *invariant* to a constant clock offset:
	// the freshness anchor shifts by +ε while every learned delay shifts
	// by −ε, and all five predictors are translation-equivariant (adding
	// a constant to the observations adds it to the forecast) while both
	// margin families are translation-invariant. The paper's NTP
	// assumption is thus needed to *measure* T_D across sites, not for
	// the detection mechanism itself — only clock *drift* (a changing
	// offset) perturbs these detectors, and then only by the adaptation
	// lag. This test pins the invariance exactly.
	approx := func(a, b float64) bool {
		d := a - b
		return d < 1e-6 && d > -1e-6
	}
	for _, q := range []nekostat.QoS{ahead, behind} {
		// Equality up to nanosecond-scale float wiggle from the shifted
		// interval boundaries.
		if !approx(q.TD.Mean, sync.TD.Mean) || q.Mistakes != sync.Mistakes || !approx(q.PA, sync.PA) {
			t.Errorf("constant clock offset changed the QoS: TD %v vs %v, mistakes %d vs %d, PA %v vs %v",
				q.TD.Mean, sync.TD.Mean, q.Mistakes, sync.Mistakes, q.PA, sync.PA)
		}
	}
	if sync.Detected != sync.Crashes {
		t.Errorf("missed crashes: %+v", sync)
	}
}

func TestAccuracyStability(t *testing.T) {
	res, err := RunAccuracyStability(AccuracyConfig{Samples: 12000, Warmup: 1000}, 8)
	if err != nil {
		t.Fatal(err)
	}
	if res.Seeds != 8 {
		t.Fatalf("seeds = %d", res.Seeds)
	}
	// The Table 3 headline must be stable: ARIMA wins on a clear majority
	// of realizations and has the best mean rank.
	if res.FirstPlaceCount["ARIMA"] < 6 {
		t.Errorf("ARIMA first on only %d/8 seeds: %+v", res.FirstPlaceCount["ARIMA"], res.FirstPlaceCount)
	}
	for name, mr := range res.MeanRank {
		if name == "ARIMA" {
			continue
		}
		if res.MeanRank["ARIMA"] >= mr {
			t.Errorf("ARIMA mean rank %.2f not better than %s's %.2f",
				res.MeanRank["ARIMA"], name, mr)
		}
	}
	if !strings.Contains(res.Table(), "ARIMA") {
		t.Error("table incomplete")
	}
	if _, err := RunAccuracyStability(AccuracyConfig{}, 0); err == nil {
		t.Error("zero seeds should be rejected")
	}
}

func TestRunLossSweep(t *testing.T) {
	points, err := RunLossSweep(LossSweepConfig{
		Table5:    Table5{NumCycles: 5000, MTTC: 250 * time.Second, TTR: 25 * time.Second, Seed: 41},
		LossProbs: []float64{0, 0.01, 0.05},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 3 {
		t.Fatalf("points = %d", len(points))
	}
	// A lost heartbeat is indistinguishable from a late one: mistakes rise
	// monotonically with loss, and with zero loss and a stationary channel
	// the adaptive detector makes very few.
	for i := 1; i < len(points); i++ {
		if points[i].QoS.Mistakes <= points[i-1].QoS.Mistakes {
			t.Errorf("mistakes not increasing with loss: %d (p=%v) -> %d (p=%v)",
				points[i-1].QoS.Mistakes, points[i-1].LossProb,
				points[i].QoS.Mistakes, points[i].LossProb)
		}
	}
	// 5% loss ⇒ roughly one mistake per 20 heartbeats.
	if points[2].QoS.Mistakes < 100 {
		t.Errorf("5%% loss produced only %d mistakes over 5000 cycles", points[2].QoS.Mistakes)
	}
	// Crashes remain detected at every loss rate.
	for _, p := range points {
		if p.QoS.Detected != p.QoS.Crashes {
			t.Errorf("loss %v: missed crashes (%+v)", p.LossProb, p.QoS)
		}
	}
	if !strings.Contains(LossSweepTable(points), "0.050") {
		t.Error("table incomplete")
	}
	if _, err := RunLossSweep(LossSweepConfig{LossProbs: []float64{1.5}}); err == nil {
		t.Error("invalid loss probability should be rejected")
	}
}
