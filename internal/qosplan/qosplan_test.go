package qosplan

import (
	"math"
	"testing"
	"time"

	"wanfd/internal/core"
	"wanfd/internal/layers"
	"wanfd/internal/neko"
	"wanfd/internal/nekostat"
	"wanfd/internal/sim"
	"wanfd/internal/wan"
)

// italyJapan is the Table 4 characterization used across the tests.
var italyJapan = Network{
	LossProb:    0.004,
	MeanDelay:   207 * time.Millisecond,
	StdDevDelay: 9 * time.Millisecond,
}

func TestNetworkValidation(t *testing.T) {
	bad := []Network{
		{LossProb: -0.1, MeanDelay: time.Millisecond, StdDevDelay: time.Millisecond},
		{LossProb: 1.0, MeanDelay: time.Millisecond, StdDevDelay: time.Millisecond},
		{LossProb: 0.1, MeanDelay: 0, StdDevDelay: time.Millisecond},
		{LossProb: 0.1, MeanDelay: time.Millisecond, StdDevDelay: 0},
	}
	for i, n := range bad {
		if _, err := Derive(n, time.Second, time.Second); err == nil {
			t.Errorf("network %d should be rejected", i)
		}
		if _, err := Compute(n, Requirements{MaxDetectionTime: time.Second}); err == nil {
			t.Errorf("network %d should be rejected by Compute", i)
		}
	}
}

func TestDeriveValidation(t *testing.T) {
	if _, err := Derive(italyJapan, 0, time.Second); err == nil {
		t.Error("zero eta should be rejected")
	}
	if _, err := Derive(italyJapan, time.Second, 0); err == nil {
		t.Error("zero timeout should be rejected")
	}
}

func TestDeriveBasics(t *testing.T) {
	plan, err := Derive(italyJapan, time.Second, 300*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if plan.PredictedDetectionBound != 1300*time.Millisecond {
		t.Errorf("detection bound = %v, want 1.3s", plan.PredictedDetectionBound)
	}
	if plan.PredictedMeanDetection != 800*time.Millisecond {
		t.Errorf("mean detection = %v, want 0.8s", plan.PredictedMeanDetection)
	}
	if plan.Margin != 93*time.Millisecond {
		t.Errorf("margin = %v, want 93ms", plan.Margin)
	}
	// With a 10σ margin, mistakes come essentially only from loss:
	// T_MR ≈ η / pL = 250 s.
	wantTMR := 250 * time.Second
	got := plan.PredictedMistakeRecurrence
	if got < wantTMR/2 || got > wantTMR*2 {
		t.Errorf("T_MR = %v, want ≈%v (loss-dominated)", got, wantTMR)
	}
	if plan.PredictedQueryAccuracy <= 0.99 || plan.PredictedQueryAccuracy > 1 {
		t.Errorf("P_A = %v, want ≈1", plan.PredictedQueryAccuracy)
	}
}

func TestDeriveMonotoneInTimeout(t *testing.T) {
	var prevTMR time.Duration
	for i, timeout := range []time.Duration{
		220 * time.Millisecond, 240 * time.Millisecond, 300 * time.Millisecond, 500 * time.Millisecond,
	} {
		plan, err := Derive(italyJapan, time.Second, timeout)
		if err != nil {
			t.Fatal(err)
		}
		if i > 0 && plan.PredictedMistakeRecurrence < prevTMR {
			t.Errorf("T_MR decreased with larger timeout: %v -> %v",
				prevTMR, plan.PredictedMistakeRecurrence)
		}
		prevTMR = plan.PredictedMistakeRecurrence
	}
}

func TestComputeRequiresDetectionBound(t *testing.T) {
	if _, err := Compute(italyJapan, Requirements{}); err == nil {
		t.Error("missing detection bound should be rejected")
	}
	if _, err := Compute(italyJapan, Requirements{MaxDetectionTime: 100 * time.Millisecond}); err == nil {
		t.Error("bound below the delay floor should be rejected")
	}
}

func TestComputeMeetsTargets(t *testing.T) {
	req := Requirements{
		MaxDetectionTime:     2 * time.Second,
		MinMistakeRecurrence: 100 * time.Second,
		MaxMistakeDuration:   2 * time.Second,
	}
	plan, err := Compute(italyJapan, req)
	if err != nil {
		t.Fatal(err)
	}
	if plan.PredictedDetectionBound > req.MaxDetectionTime {
		t.Errorf("bound %v exceeds requirement %v", plan.PredictedDetectionBound, req.MaxDetectionTime)
	}
	if plan.PredictedMistakeRecurrence < req.MinMistakeRecurrence {
		t.Errorf("T_MR %v below requirement %v", plan.PredictedMistakeRecurrence, req.MinMistakeRecurrence)
	}
	if plan.PredictedMistakeDuration > req.MaxMistakeDuration {
		t.Errorf("T_M %v above requirement %v", plan.PredictedMistakeDuration, req.MaxMistakeDuration)
	}
	if plan.Eta <= 0 || plan.Timeout <= 0 {
		t.Errorf("degenerate plan %+v", plan)
	}
}

func TestComputePrefersLargeEta(t *testing.T) {
	// With no accuracy constraints, the planner picks (nearly) the
	// largest η — the fewest messages.
	plan, err := Compute(italyJapan, Requirements{MaxDetectionTime: 2 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	maxEta := 2*time.Second - (italyJapan.MeanDelay + italyJapan.StdDevDelay)
	if plan.Eta < maxEta*9/10 {
		t.Errorf("eta = %v, want close to the maximum %v", plan.Eta, maxEta)
	}
}

func TestComputeTightensEtaForAccuracy(t *testing.T) {
	loose, err := Compute(italyJapan, Requirements{MaxDetectionTime: 2 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	strict, err := Compute(italyJapan, Requirements{
		MaxDetectionTime:     2 * time.Second,
		MinMistakeRecurrence: 400 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	if strict.Eta >= loose.Eta {
		t.Errorf("stricter accuracy should shrink eta (bigger timeout): loose %v, strict %v",
			loose.Eta, strict.Eta)
	}
	if strict.Timeout <= loose.Timeout {
		t.Errorf("stricter accuracy should grow the timeout: loose %v, strict %v",
			loose.Timeout, strict.Timeout)
	}
}

func TestComputeBuysAccuracyWithRedundancy(t *testing.T) {
	// Even on a very lossy network, an extreme accuracy target within a
	// tight bound is attainable — by shrinking η so many heartbeats cover
	// each freshness interval (Chen's trade: bandwidth for accuracy).
	lossy := Network{LossProb: 0.05, MeanDelay: 200 * time.Millisecond, StdDevDelay: 10 * time.Millisecond}
	plan, err := Compute(lossy, Requirements{
		MaxDetectionTime:     time.Second,
		MinMistakeRecurrence: 365 * 24 * time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	if plan.Eta >= 500*time.Millisecond {
		t.Errorf("eta = %v; meeting a year-long T_MR on a 5%%-loss link requires dense heartbeats", plan.Eta)
	}
	if plan.PredictedMistakeRecurrence < 365*24*time.Hour {
		t.Errorf("T_MR = %v below the target", plan.PredictedMistakeRecurrence)
	}
}

// The planner's predictions must agree with the simulator within a small
// factor — Chen's analysis is what justifies deploying the planned
// detector.
func TestPlanMatchesSimulation(t *testing.T) {
	plan, err := Derive(italyJapan, time.Second, 260*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	q := simulateConstantTimeout(t, plan)
	if q.Mistakes < 5 {
		t.Fatalf("simulation produced too few mistakes (%d) to compare", q.Mistakes)
	}
	simTMR := time.Duration(q.TMR.Mean * float64(time.Millisecond))
	ratio := float64(simTMR) / float64(plan.PredictedMistakeRecurrence)
	if ratio < 0.25 || ratio > 4 {
		t.Errorf("T_MR: predicted %v, simulated %v (ratio %.2f) — model too far off",
			plan.PredictedMistakeRecurrence, simTMR, ratio)
	}
	if q.TD.N > 0 {
		simTD := time.Duration(q.TD.Mean * float64(time.Millisecond))
		diff := simTD - plan.PredictedMeanDetection
		if diff < -250*time.Millisecond || diff > 250*time.Millisecond {
			t.Errorf("T_D: predicted %v, simulated %v", plan.PredictedMeanDetection, simTD)
		}
	}
}

// simulateConstantTimeout runs the planned detector (MEAN predictor with a
// constant margin — NFD-E) over a channel matching the network model, with
// crashes injected.
func simulateConstantTimeout(t *testing.T, plan Plan) nekostat.QoS {
	t.Helper()
	eng := sim.NewEngine()
	net, err := neko.NewSimNetwork(eng, nil)
	if err != nil {
		t.Fatal(err)
	}
	// A stationary channel matching the model's normal(mean, sd) as
	// closely as the AR(1)-gamma family allows.
	delay, err := wan.NewAR1GammaDelay(wan.AR1GammaConfig{
		Base:       italyJapan.MeanDelay - 30*time.Millisecond,
		Rho:        0.1,
		GammaShape: 11.1, // mean 30 ms, sd ≈ 9 ms
		GammaScale: 2.7,
	}, sim.NewRNG(5, "plan/delay"))
	if err != nil {
		t.Fatal(err)
	}
	loss, err := wan.NewBernoulliLoss(italyJapan.LossProb, sim.NewRNG(5, "plan/loss"))
	if err != nil {
		t.Fatal(err)
	}
	ch, err := wan.NewChannel(wan.ChannelConfig{Delay: delay, Loss: loss})
	if err != nil {
		t.Fatal(err)
	}
	net.SetChannel(1, 2, ch)

	collector := nekostat.NewCollector()
	marginMs := float64(plan.Timeout-italyJapan.MeanDelay) / float64(time.Millisecond)
	margin, err := core.NewConstantMargin("planned", marginMs)
	if err != nil {
		t.Fatal(err)
	}
	det, err := core.NewDetector(core.DetectorConfig{
		Name:      "planned",
		Predictor: core.NewMean(),
		Margin:    margin,
		Eta:       plan.Eta,
		Clock:     eng,
		Listener:  collector,
	})
	if err != nil {
		t.Fatal(err)
	}
	mon, err := layers.NewMonitor(det)
	if err != nil {
		t.Fatal(err)
	}
	monProc, err := neko.NewProcess(2, eng, net, mon)
	if err != nil {
		t.Fatal(err)
	}
	hb, err := layers.NewHeartbeaterGroup(plan.Eta, 2)
	if err != nil {
		t.Fatal(err)
	}
	crash, err := layers.NewSimCrash(300*time.Second, 30*time.Second, sim.NewRNG(5, "plan/crash"), collector)
	if err != nil {
		t.Fatal(err)
	}
	hbProc, err := neko.NewProcess(1, eng, net, hb, crash)
	if err != nil {
		t.Fatal(err)
	}
	if err := monProc.Start(); err != nil {
		t.Fatal(err)
	}
	if err := hbProc.Start(); err != nil {
		t.Fatal(err)
	}
	window := 20000 * plan.Eta
	if err := eng.Run(window); err != nil {
		t.Fatal(err)
	}
	hbProc.Stop()
	monProc.Stop()
	mon.Stop()
	q, err := nekostat.QoSFromEvents(collector.Events(), "planned", 30*time.Second, window)
	if err != nil {
		t.Fatal(err)
	}
	return q
}

func TestSecToDurOverflow(t *testing.T) {
	if secToDur(math.MaxFloat64) != time.Duration(math.MaxInt64) {
		t.Error("overflow not clamped")
	}
}
