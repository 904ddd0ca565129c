package membership

import (
	"fmt"
	"time"

	"wanfd/internal/core"
	"wanfd/internal/layers"
	"wanfd/internal/neko"
	"wanfd/internal/sim"
	"wanfd/internal/wan"
)

// GroupConfig parameterizes a simulated group of processes that monitor a
// shared coordinator over WAN channels and elect the smallest trusted
// member as leader.
type GroupConfig struct {
	// Members are the process ids (≥ 2); the smallest is the initial
	// leader and the one whose crash is simulated.
	Members []neko.ProcessID
	// Combo selects the detector used by every observer.
	Combo core.Combo
	// Eta is the heartbeat period.
	Eta time.Duration
	// Preset selects the WAN channel between each pair.
	Preset wan.Preset
	// Seed drives all randomness.
	Seed int64
	// MTTC and TTR drive the leader's crash cycle.
	MTTC, TTR time.Duration
	// Horizon is the simulated duration.
	Horizon time.Duration
}

// GroupResult summarizes one group simulation from the observer's point of
// view (one representative observer hosts the elector).
type GroupResult struct {
	// Changes counts leader transitions after the initial election.
	Changes int
	// History lists the transitions.
	History []LeaderChange
	// Crashes is the number of injected leader crashes.
	Crashes int
	// FailoverMs lists, per detected crash, the time from crash to the
	// first leader change away from the crashed leader (milliseconds).
	FailoverMs []float64
	// SpuriousChanges counts transitions not attributable to a crash or
	// recovery (false suspicions of the leader).
	SpuriousChanges int
}

// RunGroup simulates the group: every non-leader member runs a detector on
// the leader (fed by heartbeats over its own WAN channel) and the first
// observer's elector records leader transitions. It returns the observer's
// view.
func RunGroup(cfg GroupConfig) (*GroupResult, error) {
	if len(cfg.Members) < 2 {
		return nil, fmt.Errorf("membership: need at least 2 members, got %d", len(cfg.Members))
	}
	if cfg.Eta <= 0 || cfg.Horizon <= 0 || cfg.MTTC <= 0 || cfg.TTR <= 0 {
		return nil, fmt.Errorf("membership: non-positive durations in config")
	}
	if cfg.Preset == 0 {
		cfg.Preset = wan.PresetItalyJapan
	}

	eng := sim.NewEngine()
	net, err := neko.NewSimNetwork(eng, nil)
	if err != nil {
		return nil, err
	}
	leaderID := cfg.Members[0]
	observer := cfg.Members[1]

	elector, err := NewElector(cfg.Members)
	if err != nil {
		return nil, err
	}

	// Leader process: heartbeats to every observer, through SimCrash.
	var crashTimes, restoreTimes []time.Duration
	crashRec := crashRecorder{crashes: &crashTimes, restores: &restoreTimes}
	for _, m := range cfg.Members[1:] {
		ch, err := wan.NewPresetChannel(cfg.Preset, cfg.Seed, fmt.Sprintf("grp/%d-%d", leaderID, m))
		if err != nil {
			return nil, err
		}
		net.SetChannel(leaderID, m, ch)
	}
	hb, err := layers.NewHeartbeaterGroup(cfg.Eta, cfg.Members[1:]...)
	if err != nil {
		return nil, err
	}
	crash, err := layers.NewSimCrash(cfg.MTTC, cfg.TTR, sim.NewRNG(cfg.Seed, "grp/crash"), crashRec)
	if err != nil {
		return nil, err
	}
	leaderProc, err := neko.NewProcess(leaderID, eng, net, hb, crash)
	if err != nil {
		return nil, err
	}

	// Observer processes: one detector each on the leader; the first
	// observer's detector drives the elector.
	var procs []*neko.Process
	var monitors []*layers.Monitor
	for i, m := range cfg.Members[1:] {
		var listener core.SuspicionListener
		if i == 0 {
			listener = MemberListener{Elector: elector, Member: leaderID}
		}
		det, err := core.NewDetector(core.DetectorConfig{
			Name:     fmt.Sprintf("%s@%d", cfg.Combo.Name(), m),
			Combo:    cfg.Combo,
			Eta:      cfg.Eta,
			Clock:    eng,
			Listener: listener,
		})
		if err != nil {
			return nil, err
		}
		mon, err := layers.NewMonitor(det)
		if err != nil {
			return nil, err
		}
		proc, err := neko.NewProcess(m, eng, net, mon)
		if err != nil {
			return nil, err
		}
		procs = append(procs, proc)
		monitors = append(monitors, mon)
		_ = observer
	}

	for _, p := range procs {
		if err := p.Start(); err != nil {
			return nil, err
		}
	}
	if err := leaderProc.Start(); err != nil {
		return nil, err
	}
	if err := eng.Run(cfg.Horizon); err != nil {
		return nil, err
	}
	leaderProc.Stop()
	for _, p := range procs {
		p.Stop()
	}
	for _, m := range monitors {
		m.Stop()
	}

	res := &GroupResult{
		Changes: elector.Changes(),
		History: elector.History(),
		Crashes: len(crashTimes),
	}
	// Failover: for each crash, the first transition away from the leader
	// at or after the crash and before the restore completes + grace.
	for i, c := range crashTimes {
		restore := cfg.Horizon
		if i < len(restoreTimes) {
			restore = restoreTimes[i]
		}
		for _, h := range res.History[1:] {
			if h.From == leaderID && h.At >= c && h.At <= restore+cfg.Eta*4 {
				res.FailoverMs = append(res.FailoverMs, float64(h.At-c)/float64(time.Millisecond))
				break
			}
		}
	}
	// Spurious: transitions away from the leader outside crash windows.
	for _, h := range res.History[1:] {
		if h.From != leaderID {
			continue
		}
		inCrash := false
		for i, c := range crashTimes {
			restore := cfg.Horizon
			if i < len(restoreTimes) {
				restore = restoreTimes[i]
			}
			if h.At >= c && h.At <= restore+cfg.Eta*4 {
				inCrash = true
				break
			}
		}
		if !inCrash {
			res.SpuriousChanges++
		}
	}
	return res, nil
}

type crashRecorder struct {
	crashes, restores *[]time.Duration
}

func (r crashRecorder) OnCrash(at time.Duration)   { *r.crashes = append(*r.crashes, at) }
func (r crashRecorder) OnRestore(at time.Duration) { *r.restores = append(*r.restores, at) }
