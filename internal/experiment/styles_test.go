package experiment

import (
	"strings"
	"testing"
	"time"

	"wanfd/internal/core"
)

func TestRunPushPullValidation(t *testing.T) {
	if _, err := RunPushPull(PushPullConfig{Table5: Table5{NumCycles: 10, Warmup: time.Hour}}); err == nil {
		t.Error("warmup longer than run should be rejected")
	}
}

func TestRunPushPullComparison(t *testing.T) {
	res, err := RunPushPull(PushPullConfig{
		Table5: Table5{NumCycles: 4000, MTTC: 200 * time.Second, TTR: 20 * time.Second, Seed: 31},
		Combo:  core.Combo{Predictor: "LAST", Margin: "JAC_med"},
	})
	if err != nil {
		t.Fatal(err)
	}

	// The paper's §2.2 message-cost claim: for continuous monitoring,
	// pull needs twice the messages of push.
	if res.Pull.MessagesSent < res.Push.MessagesSent*18/10 {
		t.Errorf("pull sent %d messages vs push %d, want ≈2x",
			res.Pull.MessagesSent, res.Push.MessagesSent)
	}

	// Both styles detect every crash.
	for _, s := range []StyleResult{res.Push, res.Pull} {
		if s.QoS.Crashes == 0 || s.QoS.Detected != s.QoS.Crashes {
			t.Errorf("style missed crashes: %+v", s.QoS)
		}
	}

	// The paper's quality claim: push obtains the *same* quality of
	// detection as pull (with half the messages). Although pull's timeout
	// covers a round trip, its freshness anchors to the ping send time —
	// which precedes a crash by the forward delay — so the detection
	// times coincide.
	diff := res.Pull.QoS.TD.Mean - res.Push.QoS.TD.Mean
	if diff < -60 || diff > 60 {
		t.Errorf("pull T_D − push T_D = %.1f ms, want ≈0 (same quality of detection)", diff)
	}

	if !strings.Contains(res.Report(), "push") || !strings.Contains(res.Report(), "pull") {
		t.Error("report incomplete")
	}
}

func TestRunPushPullDefaults(t *testing.T) {
	var cfg PushPullConfig
	cfg.setDefaults()
	if cfg.NumCycles != 10000 || cfg.Eta != time.Second ||
		cfg.MTTC != 300*time.Second || cfg.TTR != 30*time.Second {
		t.Errorf("defaults wrong: %+v", cfg)
	}
	if cfg.Combo.Name() != "LAST+JAC_med" {
		t.Errorf("default combo = %s", cfg.Combo.Name())
	}
}
