package consensus

import (
	"fmt"
	"time"

	"wanfd/internal/core"
	"wanfd/internal/layers"
	"wanfd/internal/neko"
	"wanfd/internal/sim"
	"wanfd/internal/wan"
)

// ExperimentConfig parameterizes one consensus execution over simulated WAN
// links with failure detection.
type ExperimentConfig struct {
	// N is the number of participants (≥ 2; f < N/2 crash tolerance).
	N int
	// Combo selects the failure detector every process runs on every
	// other.
	Combo core.Combo
	// Eta is the heartbeat period.
	Eta time.Duration
	// Preset selects the WAN channel between each ordered pair.
	Preset wan.Preset
	// Seed drives all randomness.
	Seed int64
	// PollInterval is the participants' phase-3 polling period (0 means
	// Eta/10).
	PollInterval time.Duration
	// Warmup is how long the heartbeat stream runs before consensus
	// starts (0 means 30 s).
	Warmup time.Duration
	// CoordinatorCrashAt, when nonzero, crashes the round-0 coordinator
	// at warmup + this offset (it never recovers). The offset should be
	// small to hit the coordinator mid-protocol.
	CoordinatorCrashAt time.Duration
	// Horizon bounds the simulation (0 means warmup + 10 minutes).
	Horizon time.Duration
}

// ExperimentResult reports one execution's outcome.
type ExperimentResult struct {
	// Decided reports whether every live participant decided within the
	// horizon.
	Decided bool
	// Agreement reports whether all deciders chose the same value.
	Agreement bool
	// Value is the decided value (when Decided).
	Value Value
	// Latency is the time from consensus start to the last live
	// participant's decision.
	Latency time.Duration
	// FirstDecision is the time from start to the first decision.
	FirstDecision time.Duration
	// MaxRound is the highest round number reached by any participant.
	MaxRound int64
	// Deciders counts the participants that decided.
	Deciders int
}

// killSwitch crashes a process permanently at a scheduled time: after the
// deadline it drops all traffic in both directions.
type killSwitch struct {
	neko.Base
	at   time.Duration
	dead bool
}

func (k *killSwitch) Init(ctx *neko.Context) error {
	if k.at > 0 {
		ctx.Clock.AfterFunc(k.at, func() { k.dead = true })
	}
	return nil
}

func (k *killSwitch) Send(m *neko.Message) {
	if k.dead {
		return
	}
	k.Base.Send(m)
}

func (k *killSwitch) Receive(m *neko.Message) {
	if k.dead {
		return
	}
	k.Base.Receive(m)
}

// hbSplit feeds heartbeats to per-source detectors and passes everything
// else up.
type hbSplit struct {
	neko.Base
	dets  map[neko.ProcessID]*core.Detector
	clock sim.Clock
}

func (h *hbSplit) Receive(m *neko.Message) {
	if m.Type == neko.MsgHeartbeat {
		if det, ok := h.dets[m.From]; ok {
			det.OnHeartbeat(m.Seq, m.SentAt, h.clock.Now())
		}
		return
	}
	h.Base.Receive(m)
}

// RunExperiment executes one consensus instance and reports its outcome.
func RunExperiment(cfg ExperimentConfig) (*ExperimentResult, error) {
	if cfg.N < 2 {
		return nil, fmt.Errorf("consensus: need N ≥ 2, got %d", cfg.N)
	}
	if cfg.Eta <= 0 {
		return nil, fmt.Errorf("consensus: need a positive eta, got %v", cfg.Eta)
	}
	if cfg.Preset == 0 {
		cfg.Preset = wan.PresetItalyJapan
	}
	if cfg.PollInterval == 0 {
		cfg.PollInterval = cfg.Eta / 10
	}
	if cfg.Warmup == 0 {
		cfg.Warmup = 30 * time.Second
	}
	if cfg.Horizon == 0 {
		cfg.Horizon = cfg.Warmup + 10*time.Minute
	}

	eng := sim.NewEngine()
	net, err := neko.NewSimNetwork(eng, nil)
	if err != nil {
		return nil, err
	}
	members := make([]neko.ProcessID, cfg.N)
	for i := range members {
		members[i] = neko.ProcessID(i + 1)
	}
	// One WAN channel per ordered pair.
	for _, from := range members {
		for _, to := range members {
			if from == to {
				continue
			}
			ch, err := wan.NewPresetChannel(cfg.Preset, cfg.Seed, fmt.Sprintf("cons/%d-%d", from, to))
			if err != nil {
				return nil, err
			}
			net.SetChannel(from, to, ch)
		}
	}

	type decideRec struct {
		at time.Duration
		v  Value
	}
	decisions := make(map[neko.ProcessID]decideRec, cfg.N)
	participants := make([]*Participant, 0, cfg.N)
	var processes []*neko.Process

	for i, self := range members {
		// Per-peer detectors.
		oracle := make(DetectorOracle, cfg.N-1)
		peers := make([]neko.ProcessID, 0, cfg.N-1)
		for _, peer := range members {
			if peer == self {
				continue
			}
			peers = append(peers, peer)
			det, err := core.NewDetector(core.DetectorConfig{
				Name:  fmt.Sprintf("%s@%d->%d", cfg.Combo.Name(), self, peer),
				Combo: cfg.Combo,
				Eta:   cfg.Eta,
				Clock: eng,
			})
			if err != nil {
				return nil, err
			}
			oracle[peer] = det
		}

		selfID := self
		part, err := New(Config{
			Self:         self,
			Members:      members,
			Proposal:     Value(100 + i),
			Oracle:       oracle,
			PollInterval: cfg.PollInterval,
			StartDelay:   cfg.Warmup,
			OnDecide: func(v Value, at time.Duration) {
				decisions[selfID] = decideRec{at: at, v: v}
			},
		})
		if err != nil {
			return nil, err
		}
		participants = append(participants, part)

		// Stack: consensus on top, then the heartbeat splitter, then one
		// heartbeat grid per peer, then (for the crash victim) the kill
		// switch.
		hb, err := layers.NewHeartbeaterGroup(cfg.Eta, peers...)
		if err != nil {
			return nil, err
		}
		stack := []neko.Layer{part, &hbSplit{dets: oracle, clock: eng}, hb}
		if i == 0 && cfg.CoordinatorCrashAt > 0 {
			stack = append(stack, &killSwitch{at: cfg.Warmup + cfg.CoordinatorCrashAt})
		}
		proc, err := neko.NewProcess(self, eng, net, stack...)
		if err != nil {
			return nil, err
		}
		processes = append(processes, proc)
	}

	for _, proc := range processes {
		if err := proc.Start(); err != nil {
			return nil, err
		}
	}
	if err := eng.Run(cfg.Horizon); err != nil {
		return nil, err
	}
	for _, proc := range processes {
		proc.Stop()
	}

	res := &ExperimentResult{Agreement: true}
	crashVictim := neko.ProcessID(0)
	if cfg.CoordinatorCrashAt > 0 {
		crashVictim = members[0]
	}
	liveCount := cfg.N
	if crashVictim != 0 {
		liveCount--
	}
	var first, last time.Duration
	var haveValue bool
	for id, rec := range decisions {
		res.Deciders++
		if !haveValue {
			res.Value, haveValue = rec.v, true
		} else if rec.v != res.Value {
			res.Agreement = false
		}
		if id == crashVictim {
			continue
		}
		if first == 0 || rec.at < first {
			first = rec.at
		}
		if rec.at > last {
			last = rec.at
		}
	}
	liveDecided := 0
	for _, m := range members {
		if m == crashVictim {
			continue
		}
		if _, ok := decisions[m]; ok {
			liveDecided++
		}
	}
	res.Decided = liveDecided == liveCount
	if res.Decided {
		res.Latency = last - cfg.Warmup
		res.FirstDecision = first - cfg.Warmup
	}
	for _, p := range participants {
		if p.Round() > res.MaxRound {
			res.MaxRound = p.Round()
		}
	}
	return res, nil
}
