package wanfd

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"
	"time"

	"wanfd/internal/experiment"
)

// The simulated experiments are deterministic: a given configuration and
// seed always produce the same report. These pins hold every virtual-time
// experiment to the numbers it printed when they were recorded, so a
// refactor of the experiment wiring must leave each of them bit-identical.
// The file is amd64-only because other architectures may fuse multiply-adds
// and round differently.
//
// Configurations are filled by field assignment rather than composite
// literals, so the pins do not depend on how the config structs group their
// fields.

// pinDigest hashes values printed with %+v, which writes every float in its
// shortest round-trip form, so equal digests mean bit-identical results.
func pinDigest(vs ...any) string {
	h := sha256.New()
	for _, v := range vs {
		fmt.Fprintf(h, "%+v\n", v)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// qosDigest hashes a QoS result in display order, with the channel summary
// and any kept event timelines.
func qosDigest(res *experiment.QoSResult) string {
	var vs []any
	for _, name := range res.Order {
		vs = append(vs, name, res.ByDetector[name])
	}
	return pinDigest(append(vs, res.ChannelStats, res.RunEvents)...)
}

// TestPaperDigestSeed1 pins the full paper-sized QoS experiment at seed 1:
// the digest is the one bench/papersim.go checks on every paper_sim run.
func TestPaperDigestSeed1(t *testing.T) {
	if raceEnabled {
		t.Skip("the full 13-run experiment is too slow under the race detector; the small pins cover the same code")
	}
	rows, err := ReproduceQoS(QoSOptions{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	for _, r := range rows {
		fmt.Fprintf(h, "%s %x %x %x %x %x %d %d %d %d\n", r.Detector,
			r.MeanTD, r.MaxTD, r.MeanTM, r.MeanTMR, r.PA,
			r.Crashes, r.Detected, r.Missed, r.Mistakes)
	}
	if got := hex.EncodeToString(h.Sum(nil))[:16]; got != "39ab3c58fc59166c" {
		t.Errorf("seed-1 paper digest %s, want 39ab3c58fc59166c", got)
	}
}

// pinTrace is a synthetic delay trace: a 180 ms floor, a sawtooth of
// jitter and a periodic 2.5 s spike that makes the detectors err.
func pinTrace() []time.Duration {
	out := make([]time.Duration, 400)
	for i := range out {
		out[i] = 180*time.Millisecond + time.Duration(i*7919%97)*time.Millisecond/2
		if i%61 == 30 {
			out[i] = 2500 * time.Millisecond
		}
	}
	return out
}

// TestSimulatedExperimentsPinned runs every virtual-time experiment with
// small parameters and compares each result's digest with the recorded one.
func TestSimulatedExperimentsPinned(t *testing.T) {
	for _, tc := range []struct {
		name, want string
		run        func() (string, error)
	}{
		{"qos/baselines-accrual-events", "e3a474f5852617ce", func() (string, error) {
			var cfg experiment.QoSConfig
			cfg.Runs, cfg.NumCycles, cfg.Seed = 2, 1500, 3
			cfg.MTTC, cfg.TTR = 150*time.Second, 15*time.Second
			cfg.Baselines, cfg.AccrualThresholds, cfg.KeepEvents = true, []float64{2, 8}, true
			res, err := experiment.RunQoS(cfg)
			if err != nil {
				return "", err
			}
			return qosDigest(res), nil
		}},
		{"qos/skew-trace", "8bcc5b5538e1196b", func() (string, error) {
			var cfg experiment.QoSConfig
			cfg.Runs, cfg.NumCycles, cfg.Seed = 2, 1500, 4
			cfg.MTTC, cfg.TTR = 150*time.Second, 15*time.Second
			cfg.ClockSkew, cfg.DelayTrace = 40*time.Millisecond, pinTrace()
			res, err := experiment.RunQoS(cfg)
			if err != nil {
				return "", err
			}
			return qosDigest(res), nil
		}},
		{"sweep/CI", "90ac947b6b20883a", func() (string, error) {
			var cfg experiment.SweepConfig
			cfg.MarginFamily, cfg.Runs, cfg.NumCycles, cfg.Seed = "CI", 2, 1500, 5
			cfg.MTTC, cfg.TTR = 150*time.Second, 15*time.Second
			points, err := experiment.RunMarginSweep(cfg)
			return pinDigest(points), err
		}},
		{"sweep/JAC", "f3195130d912f9c4", func() (string, error) {
			var cfg experiment.SweepConfig
			cfg.MarginFamily, cfg.Params, cfg.Runs, cfg.NumCycles, cfg.Seed = "JAC", []float64{1, 4}, 2, 1500, 6
			points, err := experiment.RunMarginSweep(cfg)
			return pinDigest(points), err
		}},
		{"loss", "6f9062374e8b387d", func() (string, error) {
			var cfg experiment.LossSweepConfig
			cfg.NumCycles, cfg.Seed = 2000, 7
			cfg.MTTC, cfg.TTR = 150*time.Second, 15*time.Second
			points, err := experiment.RunLossSweep(cfg)
			return pinDigest(points), err
		}},
		{"pushpull", "740c75a49653e953", func() (string, error) {
			var cfg experiment.PushPullConfig
			cfg.NumCycles, cfg.Seed = 2000, 8
			cfg.MTTC, cfg.TTR = 150*time.Second, 15*time.Second
			cmp, err := experiment.RunPushPull(cfg)
			return pinDigest(cmp), err
		}},
		{"accuracy", "bce881b3efe5c849", func() (string, error) {
			res, err := experiment.RunAccuracy(experiment.AccuracyConfig{Samples: 3000, Seed: 9, Warmup: 300})
			return pinDigest(res), err
		}},
		{"accuracy/trace", "83e7cab2d2753a7a", func() (string, error) {
			res, err := experiment.RunAccuracy(experiment.AccuracyConfig{Samples: 1000, Warmup: 100, DelayTrace: pinTrace()})
			return pinDigest(res), err
		}},
		{"accuracy/stability", "c6be0f8b0b565fdc", func() (string, error) {
			res, err := experiment.RunAccuracyStability(experiment.AccuracyConfig{Samples: 2000, Seed: 10, Warmup: 200}, 3)
			return pinDigest(res), err
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			got, err := tc.run()
			if err != nil {
				t.Fatal(err)
			}
			if got != tc.want {
				t.Errorf("digest %s, want %s", got, tc.want)
			}
		})
	}
}
