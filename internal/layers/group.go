package layers

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"wanfd/internal/neko"
	"wanfd/internal/sched"
)

// HeartbeaterGroup is the monitored process q of the paper: it sends
// heartbeat m_i at σ_i = i·η to each of its members (the monitors). Each
// member keeps its own nominal sending grid σ_i = epoch + i·η, anchored
// where the member starts, and its own η, which that member's monitor may
// retune with MsgSetInterval. The grid time goes on the wire, not the
// actual send instant: on a real host timer lateness then shows up as
// measured delay, which the adaptive safety margins absorb — stamping the
// actual instant would instead leak sender jitter into the freshness points
// unseen by the margins. Each grid is driven by one Rearmable timer on the
// context clock, and each tick writes its heartbeat itself.
//
// Grids are not staggered: members started together tick together. On a
// real network the member timers run on the endpoint's RealClock, one Go
// runtime timer each, so there is no shared wheel slot for them to stack
// on, and a tick's Send writes its own datagram, so there is no batcher
// for a burst to keep busy.
type HeartbeaterGroup struct {
	neko.Base
	eta time.Duration // every member's initial period

	mu      sync.Mutex
	ctx     *neko.Context
	members []*groupMember // in Add order, which is the order Init starts them
	stopped bool

	sent atomic.Uint64
}

// groupMember is one monitor's sending grid.
type groupMember struct {
	g     *HeartbeaterGroup
	to    neko.ProcessID
	eta   time.Duration
	epoch time.Duration
	seq   int64           // next sequence number to send
	cycle int64           // cycles since epoch (drives the send grid)
	timer sched.Rearmable // nil until the group is initialized or once removed
}

// NewHeartbeaterGroup builds a group sending one heartbeat per eta to each
// of the given members, starting at sequence number 0.
func NewHeartbeaterGroup(eta time.Duration, to ...neko.ProcessID) (*HeartbeaterGroup, error) {
	if eta <= 0 {
		return nil, fmt.Errorf("layers: heartbeat period must be positive, got %v", eta)
	}
	g := &HeartbeaterGroup{eta: eta}
	for _, id := range to {
		if err := g.Add(id, 0); err != nil {
			return nil, err
		}
	}
	return g, nil
}

var _ neko.Layer = (*HeartbeaterGroup)(nil)

// Add registers a member starting at the given sequence number. On a real
// network, deriving it from the shared time base (⌊wall-clock/η⌋ — the
// paper's σ_i = i·η numbering) lets a restarted heartbeater resume with
// fresh sequence numbers instead of being mistaken for stale traffic. If
// the group is already running the member's first heartbeat goes out now.
func (g *HeartbeaterGroup) Add(to neko.ProcessID, startSeq int64) error {
	if startSeq < 0 {
		return fmt.Errorf("layers: negative start sequence %d", startSeq)
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.stopped {
		return fmt.Errorf("layers: group stopped")
	}
	if g.memberLocked(to) != nil {
		return fmt.Errorf("layers: peer %d already in group", to)
	}
	m := &groupMember{g: g, to: to, eta: g.eta, seq: startSeq}
	g.members = append(g.members, m)
	if g.ctx != nil {
		g.startLocked(m)
	}
	return nil
}

// memberLocked returns the member whose grid sends to process to, or nil.
// Callers hold g.mu.
func (g *HeartbeaterGroup) memberLocked(to neko.ProcessID) *groupMember {
	for _, m := range g.members {
		if m.to == to {
			return m
		}
	}
	return nil
}

// startLocked anchors a member's grid at the current instant and sends its
// first heartbeat there. Callers hold g.mu.
func (g *HeartbeaterGroup) startLocked(m *groupMember) {
	m.epoch = g.ctx.Clock.Now()
	m.timer = sched.NewTimer(g.ctx.Clock, m.tick)
	m.timer.Reschedule(0)
}

// Remove cancels a member's cycle and forgets it.
func (g *HeartbeaterGroup) Remove(to neko.ProcessID) error {
	g.mu.Lock()
	defer g.mu.Unlock()
	for i, m := range g.members {
		if m.to != to {
			continue
		}
		g.members = slices.Delete(g.members, i, i+1)
		if m.timer != nil {
			m.timer.Stop()
			m.timer = nil
		}
		return nil
	}
	return fmt.Errorf("layers: peer %d not in group", to)
}

// SetInterval switches one member to a new sending period, leaving the
// others on theirs. The member's nominal grid restarts one new period from
// now and its sequence numbers keep increasing, so its monitor keeps a
// consistent send-time base. A member whose cycle is not running (group
// not yet initialized, or stopped) only records the period.
func (g *HeartbeaterGroup) SetInterval(to neko.ProcessID, eta time.Duration) error {
	if eta <= 0 {
		return fmt.Errorf("layers: heartbeat period must be positive, got %v", eta)
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	m := g.memberLocked(to)
	if m == nil {
		return fmt.Errorf("layers: peer %d not in group", to)
	}
	m.eta = eta
	if m.timer == nil {
		return nil
	}
	m.epoch = g.ctx.Clock.Now() + eta
	m.cycle = 0
	m.timer.Reschedule(eta)
	return nil
}

// Receive handles MsgSetInterval from a member (on a real network the
// transport attributes the datagram's source address to that monitor's id)
// by retuning that member's grid — the Bertier extension, making every
// heartbeat stream remotely tunable; everything else passes up.
func (g *HeartbeaterGroup) Receive(m *neko.Message) {
	if m.Type == MsgSetInterval {
		if m.Seq > 0 {
			_ = g.SetInterval(m.From, time.Duration(m.Seq)) // a non-member's command is ignored
		}
		return
	}
	g.Base.Receive(m)
}

// Len returns the current member count.
func (g *HeartbeaterGroup) Len() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return len(g.members)
}

// Init starts every registered member's cycle, in the order they were
// added: each sends its first heartbeat immediately, then one every η.
func (g *HeartbeaterGroup) Init(ctx *neko.Context) error {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.ctx = ctx
	for _, m := range g.members {
		g.startLocked(m)
	}
	return nil
}

// tick emits one member's next heartbeat, stamped with its nominal grid
// time, and rearms against the grid so timer jitter does not accumulate.
func (m *groupMember) tick() {
	g := m.g
	g.mu.Lock()
	if g.ctx == nil || m.timer == nil {
		g.mu.Unlock()
		return
	}
	now := g.ctx.Clock.Now()
	msg := &neko.Message{
		From:   g.ctx.ID,
		To:     m.to,
		Type:   neko.MsgHeartbeat,
		Seq:    m.seq,
		SentAt: m.epoch + time.Duration(m.cycle)*m.eta,
	}
	m.seq++
	m.cycle++
	d := m.epoch + time.Duration(m.cycle)*m.eta - now
	if d < 0 {
		d = 0
	}
	m.timer.Reschedule(d)
	g.mu.Unlock()

	g.Send(msg)
	g.sent.Add(1)
}

// Stop halts every member's cycle; the group cannot be restarted.
func (g *HeartbeaterGroup) Stop() {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.stopped = true
	for _, m := range g.members {
		if m.timer != nil {
			m.timer.Stop()
			m.timer = nil
		}
	}
}

// Sent returns the number of heartbeats emitted across all members.
func (g *HeartbeaterGroup) Sent() uint64 { return g.sent.Load() }
