package experiment

import (
	"fmt"
	"math/rand"
	"time"

	"wanfd/internal/core"
	"wanfd/internal/layers"
	"wanfd/internal/neko"
	"wanfd/internal/nekostat"
	"wanfd/internal/sim"
	"wanfd/internal/wan"
)

// Process identifiers of the two-process experimental system (Figure 3 of
// the paper).
const (
	// ProcMonitored is the heartbeat-sending process q (ran in Italy).
	ProcMonitored neko.ProcessID = 1
	// ProcMonitor is the failure-detecting process p (ran in Japan).
	ProcMonitor neko.ProcessID = 2
)

// Table5 is the run block of the paper's Table 5 that the simulated
// experiments share: how many heartbeat cycles a run lasts, the heartbeat
// period, the injected crash schedule, the seed, and the warm-up the metrics
// skip. A zero field takes the paper's value.
type Table5 struct {
	// NumCycles is the number of heartbeat cycles per run (≈ 10 000 gives
	// the paper's N_TD ≈ 30 per run with the default MTTC and TTR).
	NumCycles int
	// Eta is the heartbeat period η (paper: 1 s).
	Eta time.Duration
	// MTTC is the mean time to crash (paper: 300 s).
	MTTC time.Duration
	// TTR is the constant time to repair (paper: 30 s).
	TTR time.Duration
	// Seed drives all randomness.
	Seed int64
	// Warmup excludes the bootstrap transient from the metrics window
	// (default 60 s).
	Warmup time.Duration
}

func (t *Table5) setDefaults() {
	if t.NumCycles == 0 {
		t.NumCycles = 10000
	}
	if t.Eta == 0 {
		t.Eta = time.Second
	}
	if t.MTTC == 0 {
		t.MTTC = 300 * time.Second
	}
	if t.TTR == 0 {
		t.TTR = 30 * time.Second
	}
	if t.Warmup == 0 {
		t.Warmup = 60 * time.Second
	}
}

// validate rejects a defaulted block no run can honour. Every experiment
// that runs the block calls it before its first run, so one bad block fails
// the same way in each of them.
func (t *Table5) validate() error {
	switch {
	case t.NumCycles < 0:
		return fmt.Errorf("experiment: negative NumCycles %d", t.NumCycles)
	case t.Eta <= 0:
		return fmt.Errorf("experiment: non-positive heartbeat period %v", t.Eta)
	case t.MTTC < 0 || t.TTR < 0:
		return fmt.Errorf("experiment: negative MTTC/TTR (%v/%v)", t.MTTC, t.TTR)
	case t.Warmup < 0:
		return fmt.Errorf("experiment: negative warmup %v", t.Warmup)
	case t.window() <= t.Warmup:
		return fmt.Errorf("experiment: run length %v not longer than warmup %v", t.window(), t.Warmup)
	}
	return nil
}

// window is the length of a run, NumCycles·η.
func (t *Table5) window() time.Duration { return time.Duration(t.NumCycles) * t.Eta }

// qos extracts one detector's QoS from a run's events, over the window
// after the warm-up.
func (t *Table5) qos(events []nekostat.Event, detector string) (nekostat.QoS, error) {
	return nekostat.QoSFromEvents(events, detector, t.Warmup, t.window())
}

// system is one execution of the paper's two-process system (Figure 3) on a
// fresh simulation engine: the monitored process q sends across a simulated
// WAN to the monitor p. Every virtual-time experiment is made of system
// runs; they differ only in the channels, whether crashes are injected, and
// the layers each process stacks.
type system struct {
	// Table5 supplies η, the run length NumCycles·η, and MTTC and TTR.
	// Seed and Warmup are the caller's: it seeds the channels and the crash
	// source, and reads the events.
	Table5
	// fwd carries q → p; rev, when non-nil, carries p → q.
	fwd, rev *wan.Channel
	// crash, when non-nil, puts a SimCrash drawing from it under q's stack.
	crash *rand.Rand
	// sender is q's top layer; nil means a HeartbeaterGroup sending to p
	// every η.
	sender neko.Layer
	// monitor builds p's layers, top first, on the run's engine, with the
	// run's event collector as their suspicion listener.
	monitor func(eng *sim.Engine, events *nekostat.Collector) ([]neko.Layer, error)
}

// run executes the system to the end of its window and returns the
// collected events: the injected crashes and restores and every detector
// transition.
func (s system) run() ([]nekostat.Event, error) {
	eng := sim.NewEngine()
	net, err := neko.NewSimNetwork(eng, nil)
	if err != nil {
		return nil, err
	}
	net.SetChannel(ProcMonitored, ProcMonitor, s.fwd)
	if s.rev != nil {
		net.SetChannel(ProcMonitor, ProcMonitored, s.rev)
	}
	events := nekostat.NewCollector()

	sender := s.sender
	if sender == nil {
		if sender, err = layers.NewHeartbeaterGroup(s.Eta, ProcMonitor); err != nil {
			return nil, err
		}
	}
	qStack := []neko.Layer{sender}
	if s.crash != nil {
		crash, err := layers.NewSimCrash(s.MTTC, s.TTR, s.crash, events)
		if err != nil {
			return nil, err
		}
		qStack = append(qStack, crash)
	}
	q, err := neko.NewProcess(ProcMonitored, eng, net, qStack...)
	if err != nil {
		return nil, err
	}
	pStack, err := s.monitor(eng, events)
	if err != nil {
		return nil, err
	}
	p, err := neko.NewProcess(ProcMonitor, eng, net, pStack...)
	if err != nil {
		return nil, err
	}

	if err := p.Start(); err != nil {
		return nil, err
	}
	if err := q.Start(); err != nil {
		return nil, err
	}
	if err := eng.Run(s.window()); err != nil {
		return nil, err
	}
	q.Stop()
	p.Stop()
	return events.Events(), nil
}

// buildChannel returns either a lossless trace-replay channel or the
// preset channel.
func buildChannel(preset wan.Preset, delayTrace []time.Duration, seed int64, stream string) (*wan.Channel, error) {
	if len(delayTrace) > 0 {
		td, err := wan.NewTraceDelay(delayTrace)
		if err != nil {
			return nil, err
		}
		return wan.NewChannel(wan.ChannelConfig{Delay: td})
	}
	return wan.NewPresetChannel(preset, seed, stream)
}

// comboDetector builds the freshness-point detector of one named
// combination.
func comboDetector(c core.Combo, eta time.Duration, clock sim.Clock, l core.SuspicionListener) (*core.Detector, error) {
	return core.NewDetector(core.DetectorConfig{
		Name:     c.Name(),
		Combo:    c,
		Eta:      eta,
		Clock:    clock,
		Listener: l,
	})
}

// comboMonitor builds the monitor side of the single-detector experiments:
// one Monitor over the combination's detector.
func comboMonitor(c core.Combo, eta time.Duration) func(*sim.Engine, *nekostat.Collector) ([]neko.Layer, error) {
	return func(eng *sim.Engine, l *nekostat.Collector) ([]neko.Layer, error) {
		det, err := comboDetector(c, eta, eng, l)
		if err != nil {
			return nil, err
		}
		mon, err := layers.NewMonitor(det)
		if err != nil {
			return nil, err
		}
		return []neko.Layer{mon}, nil
	}
}
