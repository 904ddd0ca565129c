package layers

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"wanfd/internal/core"
	"wanfd/internal/neko"
	"wanfd/internal/sched"
)

// Message types of the pull-style protocol (§2.2 of the paper): the
// monitor sends requests ("are you alive?") and the monitored process
// answers.
const (
	// MsgPing is the monitor's liveness request.
	MsgPing neko.MessageType = neko.MsgUser + 10 + iota
	// MsgPong is the monitored process's response.
	MsgPong
)

// Responder is the monitored side of a pull-style failure detector: it
// answers every MsgPing with a MsgPong echoing the sequence number and the
// ping's send timestamp. It is purely reactive (no timers).
type Responder struct {
	neko.Base
	ctx     atomic.Pointer[neko.Context]
	replies atomic.Uint64
}

// NewResponder builds a pull-style responder.
func NewResponder() *Responder { return &Responder{} }

var _ neko.Layer = (*Responder)(nil)

// Init captures the context.
func (r *Responder) Init(ctx *neko.Context) error {
	r.ctx.Store(ctx)
	return nil
}

// Receive answers pings; everything else passes up.
func (r *Responder) Receive(m *neko.Message) {
	if ctx := r.ctx.Load(); ctx != nil && m.Type == MsgPing {
		r.replies.Add(1)
		r.Send(&neko.Message{
			From:   ctx.ID,
			To:     m.From,
			Type:   MsgPong,
			Seq:    m.Seq,
			SentAt: m.SentAt, // echo the request timestamp: delay = round trip
		})
		return
	}
	r.Base.Receive(m)
}

// Replies returns the number of pongs sent.
func (r *Responder) Replies() uint64 { return r.replies.Load() }

// Puller is the monitor side of a pull-style failure detector: every η it
// sends a MsgPing; pongs feed the wrapped Detector, whose observations are
// then *round-trip* delays (the defining QoS difference from push-style:
// the freshness point must cover two network traversals).
type Puller struct {
	neko.Base
	target neko.ProcessID
	eta    time.Duration
	det    *core.Detector

	mu    sync.Mutex
	ctx   *neko.Context
	epoch time.Duration
	seq   int64
	timer sched.Rearmable // nil once stopped

	pings atomic.Uint64
}

// NewPuller builds the pulling monitor around an existing detector, which
// must have been configured with the same η.
func NewPuller(target neko.ProcessID, eta time.Duration, det *core.Detector) (*Puller, error) {
	if eta <= 0 {
		return nil, fmt.Errorf("layers: pull period must be positive, got %v", eta)
	}
	if det == nil {
		return nil, fmt.Errorf("layers: puller needs a detector")
	}
	return &Puller{target: target, eta: eta, det: det}, nil
}

var _ neko.Layer = (*Puller)(nil)

// Init starts the ping cycle.
func (p *Puller) Init(ctx *neko.Context) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.ctx = ctx
	p.epoch = ctx.Clock.Now()
	p.timer = sched.NewTimer(ctx.Clock, p.tick)
	p.timer.Reschedule(0)
	return nil
}

func (p *Puller) tick() {
	p.mu.Lock()
	if p.ctx == nil || p.timer == nil {
		p.mu.Unlock()
		return
	}
	now := p.ctx.Clock.Now()
	msg := &neko.Message{
		From:   p.ctx.ID,
		To:     p.target,
		Type:   MsgPing,
		Seq:    p.seq,
		SentAt: p.epoch + time.Duration(p.seq)*p.eta, // nominal grid, as the HeartbeaterGroup
	}
	p.seq++
	next := p.epoch + time.Duration(p.seq)*p.eta
	d := next - now
	if d < 0 {
		d = 0
	}
	p.timer.Reschedule(d)
	p.mu.Unlock()

	p.Send(msg)
	p.pings.Add(1)
}

// Receive feeds pongs to the detector; everything else passes up.
func (p *Puller) Receive(m *neko.Message) {
	p.mu.Lock()
	ctx := p.ctx
	p.mu.Unlock()
	if ctx != nil && m.Type == MsgPong {
		// m.SentAt is the echoed ping timestamp, so the observed delay is
		// the full round trip.
		p.det.OnHeartbeat(m.Seq, m.SentAt, ctx.Clock.Now())
		return
	}
	p.Base.Receive(m)
}

// Stop halts the ping cycle and the detector's timers.
func (p *Puller) Stop() {
	p.mu.Lock()
	if p.timer != nil {
		p.timer.Stop()
		p.timer = nil
	}
	p.mu.Unlock()
	p.det.Stop()
}

// Detector returns the wrapped detector.
func (p *Puller) Detector() *core.Detector { return p.det }

// Pings returns the number of requests sent.
func (p *Puller) Pings() uint64 { return p.pings.Load() }
