package experiment

import (
	"strings"
	"testing"
	"time"

	"wanfd/internal/core"
)

func TestAccuracyWithDelayTrace(t *testing.T) {
	// Replay a synthetic sawtooth trace: results must be deterministic
	// regardless of seed.
	delays := make([]time.Duration, 3000)
	for i := range delays {
		delays[i] = 200*time.Millisecond + time.Duration(i%20)*time.Millisecond
	}
	run := func(seed int64) *AccuracyResult {
		t.Helper()
		res, err := RunAccuracy(AccuracyConfig{
			Samples:    3000,
			Seed:       seed,
			Warmup:     500,
			DelayTrace: delays,
			Predictors: []string{"LAST", "MEAN"},
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(1), run(999)
	if len(a.Rows) != 2 || len(b.Rows) != 2 {
		t.Fatal("missing rows")
	}
	for i := range a.Rows {
		if a.Rows[i] != b.Rows[i] {
			t.Errorf("trace replay not seed-independent: %+v vs %+v", a.Rows[i], b.Rows[i])
		}
	}
	// Lossless replay: every heartbeat delivered.
	if len(a.DelaysMs) != 3000 {
		t.Errorf("delivered %d delays, want all 3000 (lossless trace)", len(a.DelaysMs))
	}
}

func TestQoSWithDelayTrace(t *testing.T) {
	delays := make([]time.Duration, 500)
	for i := range delays {
		delays[i] = 200 * time.Millisecond
	}
	res, err := RunQoS(QoSConfig{
		Runs:       1,
		Table5:     Table5{NumCycles: 1500, MTTC: 150 * time.Second, TTR: 15 * time.Second, Seed: 3},
		DelayTrace: delays,
		Combos:     []core.Combo{{Predictor: "LAST", Margin: "JAC_med"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	q := res.ByDetector["LAST+JAC_med"]
	if q.Detected == 0 {
		t.Error("no detections on trace-driven run")
	}
	// Constant delays: no mistakes at all outside crashes.
	if q.Mistakes != 0 {
		t.Errorf("mistakes = %d on a constant-delay trace, want 0", q.Mistakes)
	}
}

func TestQoSCSV(t *testing.T) {
	res, err := RunQoS(QoSConfig{
		Runs:   1,
		Table5: Table5{NumCycles: 1500, MTTC: 150 * time.Second, TTR: 15 * time.Second, Seed: 3},
		Combos: []core.Combo{
			{Predictor: "LAST", Margin: "JAC_med"},
			{Predictor: "MEAN", Margin: "CI_low"},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	csv := res.CSV()
	lines := strings.Split(strings.TrimSpace(csv), "\n")
	if len(lines) != 3 {
		t.Fatalf("csv lines = %d, want header + 2 detectors:\n%s", len(lines), csv)
	}
	if !strings.HasPrefix(lines[0], "detector,td_ms") {
		t.Errorf("csv header = %q", lines[0])
	}
	if !strings.HasPrefix(lines[1], "LAST+JAC_med,") {
		t.Errorf("csv row order wrong: %q", lines[1])
	}
	for _, line := range lines[1:] {
		if n := strings.Count(line, ","); n != 9 {
			t.Errorf("csv row has %d commas, want 9: %q", n, line)
		}
	}
}

func TestAccuracyExtendedPredictors(t *testing.T) {
	res, err := RunAccuracy(AccuracyConfig{
		Samples:    4000,
		Seed:       5,
		Warmup:     500,
		Predictors: append(append([]string(nil), core.PredictorNames...), core.ExtendedPredictorNames...),
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 6 {
		t.Fatalf("rows = %d, want 6 with MEDIAN", len(res.Rows))
	}
	found := false
	for _, r := range res.Rows {
		if r.Predictor == "MEDIAN" {
			found = true
		}
	}
	if !found {
		t.Error("MEDIAN row missing")
	}
}
