package layers

import (
	"fmt"
	"sync"
	"time"

	"wanfd/internal/core"
	"wanfd/internal/neko"
	"wanfd/internal/sched"
)

// MsgSetInterval is the control message of the adaptable-sending-period
// extension (Bertier, Marin & Sens [2], which the paper cites but holds η
// constant): its Seq field carries the requested heartbeat interval in
// nanoseconds. A HeartbeaterGroup that receives it switches the sending
// grid of the member it came from.
const MsgSetInterval neko.MessageType = neko.MsgUser + 20

// IntervalController closes the loop on the monitor side: given a target
// worst-case detection time T_D^U, it periodically recomputes the largest
// sending period the target permits — η = T_D^U − δ (δ the detector's
// current adaptive timeout) minus a slack factor — and commands the
// monitored heartbeater to use it. Larger targets thus buy bandwidth;
// tighter targets buy detection speed, automatically, as the network's
// delay process evolves.
type IntervalController struct {
	neko.Base
	det    *core.Detector
	target time.Duration
	peer   neko.ProcessID
	period time.Duration
	minEta time.Duration
	maxEta time.Duration

	mu       sync.Mutex
	ctx      *neko.Context
	timer    sched.Rearmable // nil once stopped
	last     time.Duration
	commands uint64
}

// IntervalControllerConfig assembles an IntervalController.
type IntervalControllerConfig struct {
	// Detector is the monitor's detector for the peer (its timeout and
	// eta are adjusted).
	Detector *core.Detector
	// TargetDetection is the worst-case detection bound to maintain.
	TargetDetection time.Duration
	// Peer is the heartbeater's process id.
	Peer neko.ProcessID
	// Period is how often to re-evaluate (0 = every 10 s).
	Period time.Duration
	// MinEta and MaxEta clamp the commanded interval (defaults 100 ms
	// and TargetDetection).
	MinEta, MaxEta time.Duration
}

// NewIntervalController validates cfg and builds the controller layer.
func NewIntervalController(cfg IntervalControllerConfig) (*IntervalController, error) {
	if cfg.Detector == nil {
		return nil, fmt.Errorf("layers: interval controller needs a detector")
	}
	if cfg.TargetDetection <= 0 {
		return nil, fmt.Errorf("layers: interval controller needs a positive target, got %v", cfg.TargetDetection)
	}
	period := cfg.Period
	if period == 0 {
		period = 10 * time.Second
	}
	minEta := cfg.MinEta
	if minEta == 0 {
		minEta = 100 * time.Millisecond
	}
	maxEta := cfg.MaxEta
	if maxEta == 0 {
		maxEta = cfg.TargetDetection
	}
	if minEta <= 0 || maxEta < minEta {
		return nil, fmt.Errorf("layers: interval bounds [%v, %v] invalid", minEta, maxEta)
	}
	return &IntervalController{
		det:    cfg.Detector,
		target: cfg.TargetDetection,
		peer:   cfg.Peer,
		period: period,
		minEta: minEta,
		maxEta: maxEta,
	}, nil
}

var _ neko.Layer = (*IntervalController)(nil)

// Init starts the control loop.
func (c *IntervalController) Init(ctx *neko.Context) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.ctx = ctx
	c.timer = sched.NewTimer(ctx.Clock, c.evaluate)
	c.timer.Reschedule(c.period)
	return nil
}

// Stop halts the control loop.
func (c *IntervalController) Stop() {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.timer != nil {
		c.timer.Stop()
		c.timer = nil
	}
}

func (c *IntervalController) evaluate() {
	c.mu.Lock()
	if c.ctx == nil || c.timer == nil {
		c.mu.Unlock()
		return
	}
	// Worst case: crash right after a heartbeat → detection after
	// η + δ. Keep 10% slack for timeout adaptation between evaluations.
	timeout := time.Duration(c.det.CurrentTimeout() * float64(time.Millisecond))
	eta := c.target - timeout - c.target/10
	if eta < c.minEta {
		eta = c.minEta
	}
	if eta > c.maxEta {
		eta = c.maxEta
	}
	// Command only meaningful changes (>5%).
	diff := eta - c.last
	if diff < 0 {
		diff = -diff
	}
	var msg *neko.Message
	if c.last == 0 || diff*20 > c.last {
		msg = &neko.Message{
			From: c.ctx.ID,
			To:   c.peer,
			Type: MsgSetInterval,
			Seq:  int64(eta),
		}
		c.last = eta
		c.commands++
		// Under c.mu, so that once Stop has returned the controller never
		// touches the detector again — its memory may be another peer's by
		// then.
		_ = c.det.SetEta(eta)
	}
	c.timer.Reschedule(c.period)
	c.mu.Unlock()

	if msg != nil {
		c.Send(msg)
	}
}

// Commands returns the number of interval changes commanded.
func (c *IntervalController) Commands() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.commands
}

// LastCommanded returns the most recently commanded interval (0 if none).
func (c *IntervalController) LastCommanded() time.Duration {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.last
}
