package layers

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"wanfd/internal/neko"
	"wanfd/internal/sched"
)

// HeartbeaterGroup serves many peers' η-cycles from one layer — the
// many-monitor counterpart of Heartbeater. Each member keeps its own
// nominal sending grid σ_i = epoch + i·η (same stamping discipline as
// Heartbeater: the grid time goes on the wire, so timer lateness shows up
// as measured delay for the monitor's margins to absorb) and its own η,
// which that member's monitor may retune with MsgSetInterval. Each grid is
// driven by one Rearmable timer on the context clock, and each tick writes
// its heartbeat to the socket itself.
//
// Member grids are phase-staggered deterministically by peer id, spreading
// a large group's ticks across the η interval instead of stacking every
// member on the same instant.
type HeartbeaterGroup struct {
	neko.Base
	eta time.Duration // every member's initial period

	mu      sync.Mutex
	ctx     *neko.Context
	members map[neko.ProcessID]*groupMember
	stopped bool

	sent atomic.Uint64
}

// groupMember is one peer's sending grid.
type groupMember struct {
	g     *HeartbeaterGroup
	to    neko.ProcessID
	eta   time.Duration
	epoch time.Duration
	seq   int64
	cycle int64
	timer sched.Rearmable // nil until the group is initialized or once removed
}

// NewHeartbeaterGroup builds an empty group sending one heartbeat per eta
// to every member.
func NewHeartbeaterGroup(eta time.Duration) (*HeartbeaterGroup, error) {
	if eta <= 0 {
		return nil, fmt.Errorf("layers: heartbeat period must be positive, got %v", eta)
	}
	return &HeartbeaterGroup{eta: eta, members: make(map[neko.ProcessID]*groupMember)}, nil
}

var _ neko.Layer = (*HeartbeaterGroup)(nil)

// phaseFor staggers member grids across the η interval by a deterministic
// hash of the peer id (Fibonacci hashing), so adding the whole cluster at
// once does not put every member on the same wheel slot.
func (g *HeartbeaterGroup) phaseFor(to neko.ProcessID) time.Duration {
	h := uint64(uint32(to)) * 0x9E3779B97F4A7C15
	return time.Duration(h % uint64(g.eta))
}

// Add registers a member starting at the given sequence number (0 for a
// fresh grid; see Heartbeater.SetStartSeq for the restart convention). If
// the group is already running the member's cycle starts immediately,
// phase-staggered into the current η interval.
func (g *HeartbeaterGroup) Add(to neko.ProcessID, startSeq int64) error {
	if startSeq < 0 {
		return fmt.Errorf("layers: negative start sequence %d", startSeq)
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.stopped {
		return fmt.Errorf("layers: group stopped")
	}
	if _, dup := g.members[to]; dup {
		return fmt.Errorf("layers: peer %d already in group", to)
	}
	m := &groupMember{g: g, to: to, eta: g.eta, seq: startSeq}
	g.members[to] = m
	if g.ctx != nil {
		g.startLocked(m)
	}
	return nil
}

// startLocked arms a member's grid: its epoch is the current instant plus
// the id-derived phase, and the first heartbeat fires at the epoch.
// Callers hold g.mu.
func (g *HeartbeaterGroup) startLocked(m *groupMember) {
	phase := g.phaseFor(m.to)
	m.epoch = g.ctx.Clock.Now() + phase
	m.timer = sched.NewTimer(g.ctx.Clock, m.tick)
	m.timer.Reschedule(phase)
}

// Remove cancels a member's cycle and forgets it.
func (g *HeartbeaterGroup) Remove(to neko.ProcessID) error {
	g.mu.Lock()
	defer g.mu.Unlock()
	m, ok := g.members[to]
	if !ok {
		return fmt.Errorf("layers: peer %d not in group", to)
	}
	delete(g.members, to)
	if m.timer != nil {
		m.timer.Stop()
		m.timer = nil
	}
	return nil
}

// SetInterval switches one member to a new sending period, leaving the
// others on theirs. As with Heartbeater.SetInterval the member's nominal
// grid restarts one new period from now and sequence numbers keep
// increasing. A member whose cycle is not running (group not yet
// initialized, or stopped) only records the period.
func (g *HeartbeaterGroup) SetInterval(to neko.ProcessID, eta time.Duration) error {
	if eta <= 0 {
		return fmt.Errorf("layers: heartbeat period must be positive, got %v", eta)
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	m, ok := g.members[to]
	if !ok {
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

// Receive handles MsgSetInterval from a member (the transport attributes
// the datagram's source address to that monitor's id) by retuning that
// member's grid; everything else passes up.
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

// Init starts every registered member's cycle.
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
	next := m.epoch + time.Duration(m.cycle)*m.eta
	d := next - now
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
