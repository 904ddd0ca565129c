// Package layers provides the protocol layers of the paper's experimental
// architecture (Figure 3): the HeartbeaterGroup on the monitored process
// (group.go: one η-grid per monitor, and the only heartbeat sender, in the
// simulator and on a real network alike), the SimCrash fault injector
// beneath it, and — on the monitor — the Monitor layer that feeds every
// received heartbeat to all its failure-detector instances so that the 30
// alternatives perceive identical network conditions. A pull-style request/response pair
// (Puller/Responder, see pull.go) and a per-source Router (router.go)
// complete the set.
//
// All layers are safe for concurrent use: in a real-network deployment,
// packets arrive on the transport goroutine while timers fire elsewhere.
package layers

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"wanfd/internal/core"
	"wanfd/internal/neko"
	"wanfd/internal/sched"
)

// CrashListener observes the fault injector's state transitions.
type CrashListener interface {
	// OnCrash is called when the injected crash begins.
	OnCrash(at time.Duration)
	// OnRestore is called when the process is restored.
	OnRestore(at time.Duration)
}

// SimCrash is the paper's fault-injection layer: inserted beneath the
// monitored process's protocol layers, it alternates between good periods
// and crash periods. During a crash it simply drops all messages in both
// directions, so the layers above appear crashed to the rest of the system;
// in good periods it is transparent.
//
// The time to crash is uniform in [MTTC/2, 3·MTTC/2] (mean MTTC) and the
// repair time is the constant TTR, as in the paper's SimCrash.
type SimCrash struct {
	neko.Base
	mttc time.Duration
	ttr  time.Duration
	l    CrashListener

	mu       sync.Mutex
	rng      *rand.Rand
	ctx      *neko.Context
	crashed  bool
	timer    sched.Rearmable // nil once stopped
	disabled bool

	crashes atomic.Uint64
	dropped atomic.Uint64
}

// NewSimCrash builds the fault injector. mttc and ttr must be positive;
// listener may be nil.
func NewSimCrash(mttc, ttr time.Duration, rng *rand.Rand, l CrashListener) (*SimCrash, error) {
	if mttc <= 0 {
		return nil, fmt.Errorf("layers: MTTC must be positive, got %v", mttc)
	}
	if ttr <= 0 {
		return nil, fmt.Errorf("layers: TTR must be positive, got %v", ttr)
	}
	if rng == nil {
		return nil, fmt.Errorf("layers: SimCrash needs a random source")
	}
	return &SimCrash{mttc: mttc, ttr: ttr, rng: rng, l: l}, nil
}

var _ neko.Layer = (*SimCrash)(nil)

// Init schedules the first crash.
func (s *SimCrash) Init(ctx *neko.Context) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.ctx = ctx
	s.timer = sched.NewTimer(ctx.Clock, s.fire)
	s.timer.Reschedule(s.timeToCrashLocked())
	return nil
}

// timeToCrashLocked draws uniformly from [MTTC/2, 3·MTTC/2]. Callers hold
// s.mu.
func (s *SimCrash) timeToCrashLocked() time.Duration {
	half := float64(s.mttc) / 2
	return time.Duration(half + s.rng.Float64()*2*half)
}

// fire toggles between the good and crash periods on a single rearmable
// timer: crash → restore after TTR, restore → next crash after a fresh
// uniform draw.
func (s *SimCrash) fire() {
	s.mu.Lock()
	if s.disabled || s.timer == nil {
		s.mu.Unlock()
		return
	}
	now := s.ctx.Clock.Now()
	crashed := !s.crashed
	s.crashed = crashed
	if crashed {
		s.crashes.Add(1)
		s.timer.Reschedule(s.ttr)
	} else {
		s.timer.Reschedule(s.timeToCrashLocked())
	}
	l := s.l
	s.mu.Unlock()
	if l == nil {
		return
	}
	if crashed {
		l.OnCrash(now)
	} else {
		l.OnRestore(now)
	}
}

// Send drops downward traffic during a crash.
func (s *SimCrash) Send(m *neko.Message) {
	if s.Crashed() {
		s.dropped.Add(1)
		return
	}
	s.Base.Send(m)
}

// Receive drops upward traffic during a crash.
func (s *SimCrash) Receive(m *neko.Message) {
	if s.Crashed() {
		s.dropped.Add(1)
		return
	}
	s.Base.Receive(m)
}

// Stop cancels the crash schedule.
func (s *SimCrash) Stop() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.disabled = true
	if s.timer != nil {
		s.timer.Stop()
		s.timer = nil
	}
}

// Crashed reports whether the layer is currently simulating a crash.
func (s *SimCrash) Crashed() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.crashed
}

// Stats reports the number of injected crashes and dropped messages.
func (s *SimCrash) Stats() (crashes, dropped uint64) {
	return s.crashes.Load(), s.dropped.Load()
}

// Monitor is the monitor process's failure-detection layer: every heartbeat
// delivered from below is fed, with one receive timestamp, to each of its
// detectors in registration order — the paper's mechanism for giving the 30
// alternatives the exact same message stream, the basis of its fair
// comparison. Other message types pass up. A detector is any
// core.HeartbeatConsumer: the paper's freshness-point Detector or the
// φ-accrual AccrualDetector.
type Monitor struct {
	neko.Base
	cs  []core.HeartbeatConsumer
	ctx atomic.Pointer[neko.Context]
}

// NewMonitor builds a monitor over one freshness-point detector.
func NewMonitor(det *core.Detector) (*Monitor, error) {
	if det == nil {
		return nil, fmt.Errorf("layers: monitor needs a detector")
	}
	return NewConsumerMonitor(det)
}

// NewConsumerMonitor builds a monitor feeding every heartbeat to cs, in
// order.
func NewConsumerMonitor(cs ...core.HeartbeatConsumer) (*Monitor, error) {
	if len(cs) == 0 {
		return nil, fmt.Errorf("layers: monitor needs a detector")
	}
	for i, c := range cs {
		if c == nil {
			return nil, fmt.Errorf("layers: monitor detector %d is nil", i)
		}
	}
	return &Monitor{cs: cs}, nil
}

var _ neko.Layer = (*Monitor)(nil)

// Init captures the context.
func (m *Monitor) Init(ctx *neko.Context) error {
	m.ctx.Store(ctx)
	return nil
}

// Receive feeds a heartbeat to the detectors, stamped with the clock's
// current reading; other message types pass up.
func (m *Monitor) Receive(msg *neko.Message) {
	if ctx := m.ctx.Load(); ctx != nil && msg.Type == neko.MsgHeartbeat {
		m.feed(msg, ctx.Clock.Now())
		return
	}
	m.Base.Receive(msg)
}

// ReceiveAt feeds a heartbeat to the detectors using the receive timestamp
// the transport already took for the message's drain batch, instead of
// reading the clock again per message. The detector semantics are
// unchanged: at is the heartbeat's arrival time A_i (DESIGN.md §10 bounds
// the batch-stamp skew).
func (m *Monitor) ReceiveAt(msg *neko.Message, at time.Duration) {
	if ctx := m.ctx.Load(); ctx != nil && msg.Type == neko.MsgHeartbeat {
		m.feed(msg, at)
		return
	}
	m.Base.Receive(msg)
}

var _ neko.TimedReceiver = (*Monitor)(nil)

func (m *Monitor) feed(msg *neko.Message, at time.Duration) {
	for _, c := range m.cs {
		c.OnHeartbeat(msg.Seq, msg.SentAt, at)
	}
}

// Stop stops every detector's timers.
func (m *Monitor) Stop() {
	for _, c := range m.cs {
		c.Stop()
	}
}

// DelayRecorder is a passive layer that reports the one-way delay of every
// heartbeat it sees to a callback (used by the Table 3 and Table 4
// experiments) and passes the message up unchanged. The callback runs on
// the delivering goroutine and must be safe for concurrent use on a real
// network.
type DelayRecorder struct {
	neko.Base
	fn  func(seq int64, delay time.Duration)
	ctx atomic.Pointer[neko.Context]
}

// NewDelayRecorder builds a recorder invoking fn per heartbeat.
func NewDelayRecorder(fn func(seq int64, delay time.Duration)) (*DelayRecorder, error) {
	if fn == nil {
		return nil, fmt.Errorf("layers: delay recorder needs a callback")
	}
	return &DelayRecorder{fn: fn}, nil
}

var _ neko.Layer = (*DelayRecorder)(nil)

// Init captures the context.
func (r *DelayRecorder) Init(ctx *neko.Context) error {
	r.ctx.Store(ctx)
	return nil
}

// Receive records heartbeat delays and forwards everything upward.
func (r *DelayRecorder) Receive(msg *neko.Message) {
	if ctx := r.ctx.Load(); ctx != nil && msg.Type == neko.MsgHeartbeat {
		r.fn(msg.Seq, ctx.Clock.Now()-msg.SentAt)
	}
	r.Base.Receive(msg)
}

// ClockSkew models a violation of the paper's synchronized-clocks
// assumption: it shifts the send timestamp of every upward heartbeat by a
// fixed offset, as seen by everything above it. A positive skew makes the
// monitor believe heartbeats were sent later than they were (measured
// delays shrink, timeouts tighten, false suspicions rise); a negative skew
// inflates the measured delays (timeouts swell, detection slows). The QoS
// experiment uses it to quantify how much clock error the detectors
// tolerate.
type ClockSkew struct {
	neko.Base
	offset time.Duration
}

// NewClockSkew builds the skew layer.
func NewClockSkew(offset time.Duration) *ClockSkew {
	return &ClockSkew{offset: offset}
}

var _ neko.Layer = (*ClockSkew)(nil)

// Receive shifts heartbeat send timestamps and forwards everything.
func (c *ClockSkew) Receive(m *neko.Message) {
	if m.Type == neko.MsgHeartbeat {
		shifted := *m
		shifted.SentAt += c.offset
		c.Base.Receive(&shifted)
		return
	}
	c.Base.Receive(m)
}
