//fdlint:file-ignore clockuse the benchmark times whole repetitions of the virtual-time experiment on the real wall clock

package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"runtime"
	"time"

	"wanfd"
)

const (
	// paperUpdates is the detector updates one repetition performs: the
	// paper's 13 runs of 10,000 heartbeat cycles, each fed to 30 detectors.
	paperUpdates = 13 * 10000 * 30
	// paperMinReps is the fewest timed repetitions a run reports on.
	paperMinReps = 3
	// paperDigestSeed1 pins the QoS report ReproduceQoS(QoSOptions{Seed: 1})
	// produces on amd64 (other architectures may fuse multiply-adds and
	// round differently). The experiment is deterministic, so any other
	// value means a detector, the channel model or the simulator changed
	// behaviour, not speed.
	paperDigestSeed1 = "39ab3c58fc59166c"
)

// paperDigest hashes a QoS report: every field of every detector's row.
func paperDigest(rows []wanfd.QoSReport) string {
	h := sha256.New()
	for _, r := range rows {
		fmt.Fprintf(h, "%s %x %x %x %x %x %d %d %d %d\n", r.Detector,
			r.MeanTD, r.MaxTD, r.MeanTM, r.MeanTMR, r.PA,
			r.Crashes, r.Detected, r.Missed, r.Mistakes)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// paperInvariants checks what must hold for any seed: every crash is
// either detected or missed, and P_A is a probability.
func paperInvariants(rows []wanfd.QoSReport) error {
	if len(rows) != 30 {
		return fmt.Errorf("%d detectors, want 30", len(rows))
	}
	for _, r := range rows {
		if r.Detected+r.Missed != r.Crashes {
			return fmt.Errorf("%s: detected %d + missed %d != crashes %d", r.Detector, r.Detected, r.Missed, r.Crashes)
		}
		if !(r.PA >= 0 && r.PA <= 1) {
			return fmt.Errorf("%s: P_A = %v", r.Detector, r.PA)
		}
	}
	return nil
}

// runPaperSim times repetitions of the paper's QoS experiment. The warm-up
// repetition and the first timed one share a seed and must produce the
// same report; seed 1's report is also pinned.
func runPaperSim(w workload, cfg runConfig) (*result, error) {
	res := newResult(w, cfg)
	repeat := func(seed int64) (string, time.Duration, time.Duration, error) {
		cpu0, t0 := processCPU(), time.Now()
		rows, err := wanfd.ReproduceQoS(wanfd.QoSOptions{Seed: seed})
		wall, cpu := time.Since(t0), processCPU()-cpu0
		if err != nil {
			return "", 0, 0, err
		}
		res.Attempted++
		if err := paperInvariants(rows); err != nil {
			res.fail("invariant", 1)
			res.note("seed %d: %v", seed, err)
		}
		return paperDigest(rows), wall, cpu, nil
	}

	want, setup, _, err := repeat(cfg.seed)
	if err != nil {
		return nil, err
	}
	if cfg.seed == 1 && runtime.GOARCH == "amd64" && want != paperDigestSeed1 {
		res.fail("digest", 1)
		res.note("seed 1 digest %s, pinned %s", want, paperDigestSeed1)
	}
	res.EndToEnd.scalar("setup_s", "s", setup.Seconds())

	var rate, cpuPer series
	start := time.Now()
	for i := int64(0); i < paperMinReps || time.Since(start) < time.Duration(cfg.seconds)*time.Second; i++ {
		got, wall, cpu, err := repeat(cfg.seed + i)
		if err != nil {
			return nil, err
		}
		if i == 0 && got != want {
			res.fail("digest", 1)
			res.note("seed %d: digest %s then %s", cfg.seed, want, got)
		}
		rate = append(rate, paperUpdates/wall.Seconds())
		cpuPer = append(cpuPer, float64(cpu)/1e3/paperUpdates)
	}
	res.EndToEnd.put("sim_updates_per_s", "1/s", rate, len(rate)*paperUpdates)
	res.EndToEnd.put("monitor_cpu_us_per_hb", "us", cpuPer, len(cpuPer)*paperUpdates)
	if cfg.traced() {
		if err := runLayerBenches(res.PerLayer, cfg.seed, scratchDir); err != nil {
			return nil, err
		}
	}
	res.Correct = res.Failed == 0
	return res, nil
}
