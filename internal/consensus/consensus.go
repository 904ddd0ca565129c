// Package consensus implements a rotating-coordinator crash-tolerant
// consensus in the style of Chandra–Toueg's ◇S algorithm, running on the
// framework's layered stack with the library's failure detectors. It exists
// to reproduce, as an extension, the relationship the paper cites from
// Coccoli/Urbán/Bondavalli/Schiper [6]: the QoS of the failure detector —
// in particular its detection time T_D and its mistake rate — directly
// shapes the latency of consensus, because a crashed coordinator stalls the
// protocol until the detector suspects it, and a falsely suspected
// coordinator forces gratuitous rounds.
//
// The protocol (simplified, f < n/2 crash faults, reliable-enough channels
// with retransmission by round structure):
//
//	round r, coordinator c = r mod n
//	phase 1: every process sends ESTIMATE(r, est, ts) to c
//	phase 2: c gathers a majority, adopts the estimate with the highest
//	         ts, broadcasts PROPOSE(r, v)
//	phase 3: each process waits for PROPOSE(r) from c, or for its failure
//	         detector to suspect c; it answers ACK(r) (adopting v, ts=r)
//	         or NACK(r) and moves to round r+1
//	phase 4: c gathers a majority of ACKs and broadcasts DECIDE(v);
//	         DECIDE is relayed once by every receiver (a cheap reliable
//	         broadcast), and everyone decides.
//
// Chandra–Toueg assumes reliable channels; over this package's fair-lossy
// links three additions restore liveness without touching safety:
// idempotent retransmission of the current-phase message on a slow cadence,
// round catch-up (any message from a higher round advances the receiver),
// and late ACKs (a proposal for round r is answered whenever the local
// timestamp permits — adopt if ts < r, duplicate-ACK if ts == r — because a
// single lost ACK otherwise deadlocks a round whose coordinator is alive
// and therefore never suspected).
package consensus

import (
	"fmt"
	"time"

	"wanfd/internal/core"
	"wanfd/internal/neko"
	"wanfd/internal/sched"
)

// Message types of the consensus protocol.
const (
	msgEstimate neko.MessageType = 100 + iota
	msgPropose
	msgAck
	msgNack
	msgDecide
)

// Value is a proposed/decided value.
type Value int64

// payload layout: 16 bytes — value (8) + timestamp/estimate round (8).
func encodePayload(v Value, ts int64) []byte {
	buf := make([]byte, 16)
	for i := 0; i < 8; i++ {
		buf[i] = byte(uint64(v) >> (8 * i))
		buf[8+i] = byte(uint64(ts) >> (8 * i))
	}
	return buf
}

func decodePayload(b []byte) (Value, int64, error) {
	if len(b) < 16 {
		return 0, 0, fmt.Errorf("consensus: short payload (%d bytes)", len(b))
	}
	var v, ts uint64
	for i := 0; i < 8; i++ {
		v |= uint64(b[i]) << (8 * i)
		ts |= uint64(b[8+i]) << (8 * i)
	}
	return Value(v), int64(ts), nil
}

// SuspicionOracle answers "do I currently suspect process id?" — the ◇S
// failure-detector interface the protocol queries. The library's Detector
// satisfies it through DetectorOracle.
type SuspicionOracle interface {
	Suspects(id neko.ProcessID) bool
}

// DetectorOracle adapts a set of per-peer detectors to SuspicionOracle.
type DetectorOracle map[neko.ProcessID]*core.Detector

// Suspects reports the detector output for id (false for unknown ids —
// never suspecting yourself or an unmonitored process).
func (o DetectorOracle) Suspects(id neko.ProcessID) bool {
	if d, ok := o[id]; ok {
		return d.Suspected()
	}
	return false
}

// Config assembles one consensus participant.
type Config struct {
	// Self is this process; Members lists all participants (including
	// Self), in the same order everywhere — the coordinator of round r is
	// Members[r mod n].
	Self    neko.ProcessID
	Members []neko.ProcessID
	// Proposal is this process's initial value.
	Proposal Value
	// Oracle answers suspicion queries about the other members.
	Oracle SuspicionOracle
	// PollInterval is how often a process re-checks "PROPOSE arrived or
	// coordinator suspected" while blocked in phase 3 (and the
	// coordinator re-checks its majorities). It bounds the protocol's
	// reaction time to suspicion; η/10 is a good default.
	PollInterval time.Duration
	// OnDecide is called exactly once when this process decides.
	OnDecide func(v Value, at time.Duration)
	// StartDelay postpones the protocol start (messages received earlier
	// are buffered). Experiments use it to let the failure detectors warm
	// up on the heartbeat stream first.
	StartDelay time.Duration
	// ResendInterval is the retransmission cadence: channels are fair
	// lossy, so a participant periodically re-sends its current-phase
	// message (estimate / proposal / ack / decide) until the protocol
	// moves on — all messages are idempotent. Zero means 2 s.
	ResendInterval time.Duration
}

// Participant is one consensus process, usable as a protocol layer.
type Participant struct {
	neko.Base
	cfg      Config
	n        int
	majority int
	ctx      *neko.Context
	timer    sched.Rearmable // nil once stopped

	round    int64
	est      Value
	ts       int64
	decided  bool
	decision Value

	// Coordinator state, per round actually coordinated.
	estimates map[int64]map[neko.ProcessID]estimate // round → sender → estimate
	acks      map[int64]map[neko.ProcessID]bool
	nacks     map[int64]map[neko.ProcessID]bool
	proposed  map[int64]bool
	// Participant state.
	proposals  map[int64]Value // round → proposed value received
	sentEst    map[int64]bool
	answered   map[int64]bool
	relayed    bool
	stopped    bool
	started    bool
	advancing  bool // re-entrancy guard: self-sends loop back synchronously
	lastResend time.Duration
}

type estimate struct {
	v  Value
	ts int64
}

// New validates cfg and builds a participant.
func New(cfg Config) (*Participant, error) {
	if len(cfg.Members) < 2 {
		return nil, fmt.Errorf("consensus: need at least 2 members, got %d", len(cfg.Members))
	}
	found := false
	for _, m := range cfg.Members {
		if m == cfg.Self {
			found = true
		}
	}
	if !found {
		return nil, fmt.Errorf("consensus: self %d not in member list", cfg.Self)
	}
	if cfg.Oracle == nil {
		return nil, fmt.Errorf("consensus: need a suspicion oracle")
	}
	if cfg.PollInterval <= 0 {
		return nil, fmt.Errorf("consensus: poll interval must be positive, got %v", cfg.PollInterval)
	}
	if cfg.ResendInterval == 0 {
		cfg.ResendInterval = 2 * time.Second
	}
	if cfg.ResendInterval < 0 {
		return nil, fmt.Errorf("consensus: negative resend interval %v", cfg.ResendInterval)
	}
	n := len(cfg.Members)
	return &Participant{
		cfg:       cfg,
		n:         n,
		majority:  n/2 + 1,
		est:       cfg.Proposal,
		ts:        -1,
		estimates: make(map[int64]map[neko.ProcessID]estimate),
		acks:      make(map[int64]map[neko.ProcessID]bool),
		nacks:     make(map[int64]map[neko.ProcessID]bool),
		proposed:  make(map[int64]bool),
		proposals: make(map[int64]Value),
		sentEst:   make(map[int64]bool),
		answered:  make(map[int64]bool),
	}, nil
}

var _ neko.Layer = (*Participant)(nil)

// Init starts round 0 and the polling loop. The participant is driven
// entirely by the simulation/timer goroutine and message deliveries; it is
// not safe for use on a real multi-threaded network (the experiments run it
// in the single-threaded simulator).
func (p *Participant) Init(ctx *neko.Context) error {
	p.ctx = ctx
	p.timer = sched.NewTimer(ctx.Clock, p.step)
	if p.cfg.StartDelay > 0 {
		p.timer.Reschedule(p.cfg.StartDelay)
		return nil
	}
	p.step()
	return nil
}

// Stop halts the polling loop.
func (p *Participant) Stop() {
	p.stopped = true
	if p.timer != nil {
		p.timer.Stop()
		p.timer = nil
	}
}

// Decided reports whether this process has decided, and on what.
func (p *Participant) Decided() (bool, Value) { return p.decided, p.decision }

// Round returns the current round number (diagnostics).
func (p *Participant) Round() int64 { return p.round }

func (p *Participant) coordinator(r int64) neko.ProcessID {
	return p.cfg.Members[int(r%int64(p.n))]
}

func (p *Participant) isCoordinator(r int64) bool { return p.coordinator(r) == p.cfg.Self }

// step advances the state machine as far as currently possible, then
// schedules the next poll.
func (p *Participant) step() {
	if p.stopped || p.ctx == nil {
		return
	}
	p.started = true
	if !p.decided {
		p.advance()
	}
	p.maybeResend()
	if p.stopped || p.timer == nil {
		return
	}
	p.timer.Reschedule(p.cfg.PollInterval)
}

// maybeResend retransmits the current-phase messages on a slow cadence:
// with fair-lossy channels and no suspicion of an alive coordinator, a
// single lost PROPOSE/ACK/DECIDE would otherwise deadlock the round.
func (p *Participant) maybeResend() {
	now := p.ctx.Clock.Now()
	if p.lastResend != 0 && now-p.lastResend < p.cfg.ResendInterval {
		return
	}
	p.lastResend = now
	if p.decided {
		p.broadcast(msgDecide, p.round, p.decision, p.ts)
		return
	}
	r := p.round
	if p.sentEst[r] {
		p.sendTo(p.coordinator(r), msgEstimate, r, p.est, p.ts)
	}
	if p.isCoordinator(r) && p.proposed[r] {
		p.broadcast(msgPropose, r, p.est, r)
	}
	if p.answered[r] {
		if v, ok := p.proposals[r]; ok {
			p.sendTo(p.coordinator(r), msgAck, r, v, r)
		}
	}
}

func (p *Participant) advance() {
	if p.advancing {
		// A self-send looped back into Receive while a phase was
		// executing; the outer advance sees the updated state when the
		// nested call returns.
		return
	}
	if !p.started {
		// Messages delivered before StartDelay are buffered, not acted on.
		return
	}
	p.advancing = true
	defer func() { p.advancing = false }()
	r := p.round

	// Phase 1: send our estimate to the coordinator (once per round).
	if !p.sentEst[r] {
		p.sentEst[r] = true
		p.sendTo(p.coordinator(r), msgEstimate, r, p.est, p.ts)
	}

	// Phase 2 (coordinator): with a majority of estimates, propose the
	// freshest. Scanning in member order (not map order) breaks ts ties —
	// every initial estimate has ts −1 — toward the first member, so one
	// configuration always decides the same value.
	if p.isCoordinator(r) && !p.proposed[r] {
		if ests := p.estimates[r]; len(ests) >= p.majority {
			best := estimate{v: p.est, ts: -2}
			for _, m := range p.cfg.Members {
				if e, ok := ests[m]; ok && e.ts > best.ts {
					best = e
				}
			}
			p.proposed[r] = true
			p.broadcast(msgPropose, r, best.v, r)
		}
	}

	// Phase 3: answer the proposal or give up on a suspected coordinator.
	if !p.answered[r] {
		if v, ok := p.proposals[r]; ok {
			p.answered[r] = true
			p.est, p.ts = v, r
			p.sendTo(p.coordinator(r), msgAck, r, v, r)
		} else if !p.isCoordinator(r) && p.cfg.Oracle.Suspects(p.coordinator(r)) {
			p.answered[r] = true
			p.sendTo(p.coordinator(r), msgNack, r, 0, r)
			p.round = r + 1
			return
		}
	}

	// Phase 4 (coordinator): with a majority of ACKs, decide; with a
	// blocking set of NACKs (no majority of ACKs possible), move on.
	if p.isCoordinator(r) && p.proposed[r] && !p.decided {
		if len(p.acks[r]) >= p.majority {
			p.decide(p.est)
			return
		}
		if len(p.nacks[r]) > p.n-p.majority {
			p.round = r + 1
			return
		}
	}

	// A participant that answered ACK moves on if the coordinator never
	// decides (it may have crashed after proposing): give up when the
	// coordinator becomes suspected.
	if p.answered[r] && !p.isCoordinator(r) && p.round == r &&
		p.cfg.Oracle.Suspects(p.coordinator(r)) {
		p.round = r + 1
	}
}

func (p *Participant) decide(v Value) {
	if p.decided {
		return
	}
	p.decided = true
	p.decision = v
	p.broadcast(msgDecide, p.round, v, p.ts)
	if p.cfg.OnDecide != nil {
		p.cfg.OnDecide(v, p.ctx.Clock.Now())
	}
}

// Receive handles protocol messages; everything else passes up.
func (p *Participant) Receive(m *neko.Message) {
	switch m.Type {
	case msgEstimate, msgPropose, msgAck, msgNack, msgDecide:
	default:
		p.Base.Receive(m)
		return
	}
	if p.ctx == nil || p.stopped {
		return
	}
	v, ts, err := decodePayload(m.Payload)
	if err != nil {
		return
	}
	r := m.Seq
	// Round catch-up: a message for a higher round proves its sender has
	// moved on; follow it. Without this, a coordinator stuck waiting for
	// a majority in round r deadlocks once a peer (whose round-r estimate
	// was lost) advances — the stuck coordinator is itself, so no failure
	// detector will ever unblock it. Skipping rounds preserves safety:
	// decisions still require a majority of ACKs in one round, and the
	// estimate timestamps keep locked values locked.
	if m.Type != msgDecide && r > p.round && !p.decided && p.started {
		p.round = r
	}
	switch m.Type {
	case msgEstimate:
		ests, ok := p.estimates[r]
		if !ok {
			ests = make(map[neko.ProcessID]estimate, p.n)
			p.estimates[r] = ests
		}
		ests[m.From] = estimate{v: v, ts: ts}
	case msgPropose:
		p.proposals[r] = v
		// Answer proposals independently of the current round — the
		// classic late-ACK semantics. If our timestamp is below r we
		// adopt (v, r) now (a late phase 3 for a round we may have left);
		// if it equals r we already adopted this very proposal and the
		// ACK is an idempotent duplicate (covering a lost original, which
		// otherwise deadlocks the round-r coordinator: nobody suspects an
		// alive process, and nobody else re-answers). A timestamp above r
		// means we have adopted a newer proposal; acking r then would
		// fabricate an adoption that never happened, so we stay silent.
		if !p.decided && p.started {
			switch {
			case p.ts < r:
				p.est, p.ts = v, r
				p.answered[r] = true
				p.sendTo(p.coordinator(r), msgAck, r, v, r)
			case p.ts == r:
				p.sendTo(p.coordinator(r), msgAck, r, v, r)
			}
		}
	case msgAck:
		acks, ok := p.acks[r]
		if !ok {
			acks = make(map[neko.ProcessID]bool, p.n)
			p.acks[r] = acks
		}
		acks[m.From] = true
	case msgNack:
		nacks, ok := p.nacks[r]
		if !ok {
			nacks = make(map[neko.ProcessID]bool, p.n)
			p.nacks[r] = nacks
		}
		nacks[m.From] = true
	case msgDecide:
		if !p.decided {
			p.decided = true
			p.decision = v
			// Relay once: a cheap reliable broadcast.
			if !p.relayed {
				p.relayed = true
				p.broadcast(msgDecide, r, v, ts)
			}
			if p.cfg.OnDecide != nil {
				p.cfg.OnDecide(v, p.ctx.Clock.Now())
			}
		}
		return
	}
	// React immediately rather than waiting for the next poll.
	if !p.decided {
		p.advance()
	}
}

func (p *Participant) sendTo(to neko.ProcessID, t neko.MessageType, r int64, v Value, ts int64) {
	if to == p.cfg.Self {
		// Loop back locally: the network does not deliver self-sends.
		p.Receive(&neko.Message{
			From: p.cfg.Self, To: to, Type: t, Seq: r,
			SentAt:  p.ctx.Clock.Now(),
			Payload: encodePayload(v, ts),
		})
		return
	}
	p.Send(&neko.Message{
		From: p.cfg.Self, To: to, Type: t, Seq: r,
		SentAt:  p.ctx.Clock.Now(),
		Payload: encodePayload(v, ts),
	})
}

func (p *Participant) broadcast(t neko.MessageType, r int64, v Value, ts int64) {
	for _, m := range p.cfg.Members {
		p.sendTo(m, t, r, v, ts)
	}
}
