package consensus

import (
	"testing"
	"time"

	"wanfd/internal/core"
	"wanfd/internal/neko"
	"wanfd/internal/wan"
)

func TestPayloadRoundTrip(t *testing.T) {
	for _, tc := range []struct {
		v  Value
		ts int64
	}{
		{0, 0}, {42, 7}, {-1, -1}, {1 << 60, 1 << 50},
	} {
		v, ts, err := decodePayload(encodePayload(tc.v, tc.ts))
		if err != nil {
			t.Fatal(err)
		}
		if v != tc.v || ts != tc.ts {
			t.Errorf("round trip (%d,%d) -> (%d,%d)", tc.v, tc.ts, v, ts)
		}
	}
	if _, _, err := decodePayload([]byte{1, 2, 3}); err == nil {
		t.Error("short payload should be rejected")
	}
}

func TestNewValidation(t *testing.T) {
	oracle := DetectorOracle{}
	base := Config{
		Self:         1,
		Members:      []neko.ProcessID{1, 2, 3},
		Oracle:       oracle,
		PollInterval: time.Millisecond,
	}
	bad := base
	bad.Members = []neko.ProcessID{1}
	if _, err := New(bad); err == nil {
		t.Error("too few members should be rejected")
	}
	bad = base
	bad.Self = 99
	if _, err := New(bad); err == nil {
		t.Error("self not a member should be rejected")
	}
	bad = base
	bad.Oracle = nil
	if _, err := New(bad); err == nil {
		t.Error("nil oracle should be rejected")
	}
	bad = base
	bad.PollInterval = 0
	if _, err := New(bad); err == nil {
		t.Error("zero poll interval should be rejected")
	}
	if _, err := New(base); err != nil {
		t.Errorf("valid config rejected: %v", err)
	}
}

func TestDetectorOracleUnknownID(t *testing.T) {
	o := DetectorOracle{}
	if o.Suspects(7) {
		t.Error("unknown id should never be suspected")
	}
}

func TestRunExperimentValidation(t *testing.T) {
	if _, err := RunExperiment(ExperimentConfig{N: 1, Eta: time.Second}); err == nil {
		t.Error("N=1 should be rejected")
	}
	if _, err := RunExperiment(ExperimentConfig{N: 3}); err == nil {
		t.Error("zero eta should be rejected")
	}
}

// TestRunExperimentReproducible pins that one configuration always yields
// one result: the coordinator breaks ties between equally fresh estimates
// by member order, not by map iteration order.
func TestRunExperimentReproducible(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		for _, crashAt := range []time.Duration{0, 50 * time.Millisecond} {
			cfg := ExperimentConfig{
				N:                  5,
				Combo:              core.Combo{Predictor: "LAST", Margin: "JAC_med"},
				Eta:                time.Second,
				Seed:               seed,
				CoordinatorCrashAt: crashAt,
			}
			first, err := RunExperiment(cfg)
			if err != nil {
				t.Fatal(err)
			}
			for run := 1; run < 4; run++ {
				again, err := RunExperiment(cfg)
				if err != nil {
					t.Fatal(err)
				}
				if *again != *first {
					t.Fatalf("seed %d crash at %v: run %d gave %+v, run 0 gave %+v", seed, crashAt, run, *again, *first)
				}
			}
		}
	}
}

func TestConsensusNoCrashDecidesFast(t *testing.T) {
	res, err := RunExperiment(ExperimentConfig{
		N:     3,
		Combo: core.Combo{Predictor: "LAST", Margin: "JAC_med"},
		Eta:   time.Second,
		Seed:  7,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Decided {
		t.Fatalf("consensus did not terminate: %+v", res)
	}
	if !res.Agreement {
		t.Fatal("agreement violated")
	}
	if res.Deciders != 3 {
		t.Errorf("deciders = %d, want 3", res.Deciders)
	}
	// Crash-free latency ≈ 2 sequential one-way delays (estimate →
	// propose) + decide propagation: well under 2 s on the ≈200 ms
	// channel.
	if res.Latency <= 0 || res.Latency > 2*time.Second {
		t.Errorf("latency = %v, want sub-2s without crashes", res.Latency)
	}
	if res.MaxRound != 0 {
		t.Errorf("max round = %d, want 0 without suspicions mid-run", res.MaxRound)
	}
}

func TestConsensusCoordinatorCrashRecovers(t *testing.T) {
	res, err := RunExperiment(ExperimentConfig{
		N:     3,
		Combo: core.Combo{Predictor: "LAST", Margin: "JAC_med"},
		Eta:   time.Second,
		Seed:  8,
		// Crash the round-0 coordinator almost immediately, before it can
		// gather estimates (in-flight messages from before the crash may
		// still land).
		CoordinatorCrashAt: 50 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Decided {
		t.Fatalf("survivors did not decide: %+v", res)
	}
	if !res.Agreement {
		t.Fatal("agreement violated after crash")
	}
	if res.Deciders < 2 {
		t.Errorf("deciders = %d, want the 2 survivors", res.Deciders)
	}
	if res.MaxRound < 1 {
		t.Errorf("max round = %d, want ≥1 (coordinator change)", res.MaxRound)
	}
	// Latency is dominated by the failure detector's detection time
	// (≈ η + delay + margin after the last pre-crash heartbeat).
	if res.Latency < 500*time.Millisecond || res.Latency > 30*time.Second {
		t.Errorf("crash-path latency = %v, implausible", res.Latency)
	}
}

func TestConsensusAgreementAcrossSeeds(t *testing.T) {
	for seed := int64(0); seed < 5; seed++ {
		res, err := RunExperiment(ExperimentConfig{
			N:                  5,
			Combo:              core.Combo{Predictor: "ARIMA", Margin: "JAC_low"}, // aggressive: provokes wrong suspicions
			Eta:                time.Second,
			Seed:               seed,
			CoordinatorCrashAt: 120 * time.Millisecond,
			Preset:             wan.PresetItalyJapan,
		})
		if err != nil {
			t.Fatal(err)
		}
		if !res.Decided {
			t.Errorf("seed %d: not decided (%+v)", seed, res)
			continue
		}
		if !res.Agreement {
			t.Errorf("seed %d: agreement violated", seed)
		}
	}
}

// The headline of the paper's reference [6]: consensus latency under a
// coordinator crash is dominated by the detector's detection time, so a
// conservative (high-margin) detector yields slower consensus than an
// aggressive one.
func TestConsensusLatencyTracksDetectorSpeed(t *testing.T) {
	run := func(combo core.Combo) time.Duration {
		t.Helper()
		var total time.Duration
		const runs = 3
		for seed := int64(0); seed < runs; seed++ {
			res, err := RunExperiment(ExperimentConfig{
				N:     3,
				Combo: combo,
				Eta:   time.Second,
				// Poll fine enough to resolve the detectors' tens-of-ms
				// difference in detection time.
				PollInterval:       5 * time.Millisecond,
				Seed:               40 + seed,
				CoordinatorCrashAt: 80 * time.Millisecond,
			})
			if err != nil {
				t.Fatal(err)
			}
			if !res.Decided || !res.Agreement {
				t.Fatalf("%s seed %d: %+v", combo.Name(), seed, res)
			}
			total += res.Latency
		}
		return total / runs
	}
	fast := run(core.Combo{Predictor: "LAST", Margin: "JAC_low"})
	slow := run(core.Combo{Predictor: "MEAN", Margin: "CI_high"})
	if fast >= slow {
		t.Errorf("consensus with a fast detector (%v) should beat a conservative one (%v)", fast, slow)
	}
}

// Regression for the liveness bug the benchmark suite caught: with ~0.4%
// message loss and no coordinator crash-suspicion to force a round change,
// a lost PROPOSE or DECIDE deadlocked a round until retransmission was
// added. Sweep many seeds; every run must terminate.
func TestConsensusTerminatesUnderLossManySeeds(t *testing.T) {
	for seed := int64(1); seed <= 60; seed++ {
		res, err := RunExperiment(ExperimentConfig{
			N:                  3,
			Combo:              core.Combo{Predictor: "LAST", Margin: "JAC_low"},
			Eta:                time.Second,
			PollInterval:       5 * time.Millisecond,
			Seed:               seed,
			CoordinatorCrashAt: 100 * time.Millisecond,
		})
		if err != nil {
			t.Fatal(err)
		}
		if !res.Decided {
			t.Fatalf("seed %d: consensus did not terminate: %+v", seed, res)
		}
		if !res.Agreement {
			t.Fatalf("seed %d: agreement violated", seed)
		}
	}
}
