package experiment

import (
	"fmt"
	"sort"
	"time"

	"wanfd/internal/core"
	"wanfd/internal/nekostat"
	"wanfd/internal/sched"
	"wanfd/internal/sim"
	"wanfd/internal/trace"
)

// ReplayConfig parameterizes ReplayWindow.
type ReplayConfig struct {
	// Combos lists the detector combinations to replay the window through
	// (default: the paper's 30).
	Combos []core.Combo
	// Peer selects which peer's heartbeat stream to replay when the window
	// holds several; empty selects the window's sole peer (an error when
	// ambiguous).
	Peer string
	// Eta overrides the window's recorded heartbeat period (0 keeps it).
	Eta time.Duration
	// MinTimeout overrides the window's recorded timeout floor: 0 keeps
	// the recorded floor, negative disables the floor (the paper's
	// detectors), positive is the floor itself.
	MinTimeout time.Duration
	// SchedulerTick, when positive, runs the replayed detectors' freshness
	// timers on a sched.Wheel of that granularity (the production cluster
	// scheduler); zero keeps the engine's exact heap scheduling — the
	// choice must match the recording monitor's scheduler for bit-exact
	// fidelity.
	SchedulerTick time.Duration
}

// ReplayResult is the outcome of replaying one exported window.
type ReplayResult struct {
	// Peer is the replayed peer's name.
	Peer string
	// Detector names the recording monitor's live combination (from the
	// window header); empty when the export did not stamp one.
	Detector string
	// Samples is the number of heartbeat observations replayed.
	Samples int
	// Recorded is the accounting of the recorded suspicion events — the
	// live monitor's own output over the window, through the accountant
	// the live telemetry uses. Times are rebased so the window opens at 0;
	// its P_A is Recorded.PA(w.To − w.From).
	Recorded nekostat.Accountant
	// Replayed maps each combination name to the accounting of its
	// detector's transitions when fed the recorded heartbeat stream. For
	// the combination matching Detector, an undisturbed recording replays
	// bit-identically to Recorded.
	Replayed map[string]nekostat.Accountant
	// Order lists combination names in grid order.
	Order []string
}

// ReplayWindow feeds an exported QoS-history window through a grid of
// freshly bootstrapped detectors on a virtual-time engine: every recorded
// heartbeat of the selected peer is re-delivered at its recorded receive
// instant (rebased so the window start is instant zero), and each
// detector's suspicion output is counted by the same accountant the live
// monitor uses. The engine is deterministic, so two
// replays of one window are identical — and a replay through the
// recording monitor's own combination reproduces the recorded suspicion
// timeline exactly, provided the recording started at the window start
// (detector state is path-dependent, so a mid-session window replays the
// stream into colder detectors than the live ones were).
func ReplayWindow(w *trace.Window, cfg ReplayConfig) (*ReplayResult, error) {
	if w == nil {
		return nil, fmt.Errorf("experiment: nil replay window")
	}
	if cfg.SchedulerTick < 0 {
		return nil, fmt.Errorf("experiment: negative SchedulerTick %v", cfg.SchedulerTick)
	}
	combos := cfg.Combos
	if len(combos) == 0 {
		combos = core.AllCombos()
	}
	eta := cfg.Eta
	if eta == 0 {
		eta = w.Eta
	}
	if eta <= 0 {
		return nil, fmt.Errorf("experiment: replay needs a positive eta (window header has %v)", w.Eta)
	}
	minTimeout := w.MinTimeout
	switch {
	case cfg.MinTimeout > 0:
		minTimeout = cfg.MinTimeout
	case cfg.MinTimeout < 0:
		minTimeout = 0
	}

	peer, err := resolveReplayPeer(w, cfg.Peer)
	if err != nil {
		return nil, err
	}
	base := w.From

	// One fresh detector per combination, all fed the identical stream.
	eng := sim.NewEngine()
	detClock := sim.Clock(eng)
	if cfg.SchedulerTick > 0 {
		detClock = sched.NewWheel(sched.Config{Clock: eng, Tick: cfg.SchedulerTick})
	}
	type member struct {
		det      *core.Detector
		accounts *nekostat.Accountant
	}
	members := make([]member, 0, len(combos))
	order := make([]string, 0, len(combos))
	for _, combo := range combos {
		pred, margin, err := combo.Build()
		if err != nil {
			return nil, err
		}
		acc := new(nekostat.Accountant)
		det, err := core.NewDetector(core.DetectorConfig{
			Name:       combo.Name(),
			Predictor:  pred,
			Margin:     margin,
			Eta:        eta,
			Clock:      detClock,
			Listener:   acc,
			MinTimeout: minTimeout,
		})
		if err != nil {
			return nil, err
		}
		members = append(members, member{det: det, accounts: acc})
		order = append(order, combo.Name())
	}

	// Re-deliver the peer's heartbeats at their recorded receive instants;
	// one engine event fans each observation across the whole grid, in grid
	// order, so the schedule is deterministic.
	samples := make([]trace.Sample, 0, len(w.Samples))
	for _, s := range w.Samples {
		if s.Peer == peer {
			samples = append(samples, s)
		}
	}
	sort.SliceStable(samples, func(i, j int) bool { return samples[i].Recv < samples[j].Recv })
	for _, s := range samples {
		s := s
		eng.At(s.Recv-base, func() {
			for _, m := range members {
				m.det.OnHeartbeat(s.Seq, s.Send-base, s.Recv-base)
			}
		})
	}
	if err := eng.Run(w.To - base); err != nil {
		return nil, err
	}
	for _, m := range members {
		m.det.Stop()
	}

	res := &ReplayResult{
		Peer:     peer,
		Detector: w.Detector,
		Samples:  len(samples),
		Recorded: recordedQoS(w, peer),
		Replayed: make(map[string]nekostat.Accountant, len(members)),
		Order:    order,
	}
	for i, m := range members {
		res.Replayed[order[i]] = *m.accounts
	}
	return res, nil
}

// resolveReplayPeer picks the peer whose stream is replayed.
func resolveReplayPeer(w *trace.Window, want string) (string, error) {
	seen := make(map[string]bool)
	var peers []string
	for _, s := range w.Samples {
		if !seen[s.Peer] {
			seen[s.Peer] = true
			peers = append(peers, s.Peer)
		}
	}
	sort.Strings(peers)
	if want != "" {
		if !seen[want] {
			return "", fmt.Errorf("experiment: window has no samples for peer %q (peers: %v)", want, peers)
		}
		return want, nil
	}
	switch len(peers) {
	case 0:
		return "", fmt.Errorf("experiment: window holds no heartbeat samples")
	case 1:
		return peers[0], nil
	default:
		return "", fmt.Errorf("experiment: window holds %d peers %v; select one with ReplayConfig.Peer", len(peers), peers)
	}
}

// recordedQoS counts the recorded suspicion events of peer over the window
// through the live accountant — the ground truth a replay is compared
// against. Times are rebased like the replay's.
func recordedQoS(w *trace.Window, peer string) nekostat.Accountant {
	var a nekostat.Accountant
	for _, e := range w.Events {
		switch {
		case e.Source != peer:
		case e.Kind == nekostat.KindStartSuspect:
			a.OnSuspect(peer, e.At-w.From)
		case e.Kind == nekostat.KindEndSuspect:
			a.OnTrust(peer, e.At-w.From)
		}
	}
	return a
}
