// Package neko is a compact Go rendition of the Neko framework the paper
// built its experiments on: distributed algorithms are written as stacks of
// layers attached to processes, and the same layer code runs unchanged on a
// simulated network (driven by internal/sim) or a real one (driven by
// internal/transport). Quantitative evaluation hooks (the NekoStat role)
// live in internal/nekostat.
package neko

import (
	"fmt"
	"sync/atomic"
	"time"

	"wanfd/internal/sim"
)

// ProcessID identifies a process of the distributed system.
type ProcessID int

// MessageType distinguishes protocol messages.
type MessageType uint8

// Message types used by the failure-detection stack. Applications may
// define their own starting from MsgUser.
const (
	// MsgHeartbeat is a push-style liveness heartbeat.
	MsgHeartbeat MessageType = iota + 1
	// MsgUser is the first value available to applications.
	MsgUser
)

// Message is the unit of communication between layers and processes.
type Message struct {
	// From and To are the endpoints.
	From, To ProcessID
	// Type is the protocol message type.
	Type MessageType
	// Seq is a sender-assigned sequence number (the heartbeat cycle
	// number in the failure-detection stack).
	Seq int64
	// SentAt is the send time on the experiment's shared synchronized
	// time base (the paper's NTP assumption).
	SentAt time.Duration
	// Payload carries optional application data.
	Payload []byte
	// Handle is the receiver's own token for the sender: a real transport
	// stamps every message from a registered peer with the handle that peer
	// was registered under, and a message sent back to it names it by the
	// same token. Zero everywhere else; never on the wire.
	Handle uint64
}

// Sender consumes messages travelling down the stack (toward the network).
type Sender interface {
	Send(m *Message)
}

// Receiver consumes messages travelling up the stack (from the network).
type Receiver interface {
	Receive(m *Message)
}

// TimedReceiver is an optional Receiver extension: ReceiveAt delivers a
// message together with the receive timestamp the transport already read,
// so receivers that would otherwise call Clock.Now per message (the
// monitor's heartbeat path) reuse the transport's single per-batch reading
// instead. Implementations must treat ReceiveAt(m, at) exactly like
// Receive(m) observed at time at.
//
// The interface is asserted dynamically at attach time, and deliberately
// NOT promoted via Base: a layer that overrides Receive (crash simulation,
// clock skew) must not inherit a ReceiveAt that bypasses its override.
type TimedReceiver interface {
	Receiver
	ReceiveAt(m *Message, at time.Duration)
}

// BatchReceiver is an optional Receiver extension for transports that
// drain several datagrams per wakeup: one call delivers the whole batch,
// all observed at the same timestamp. Neither the slice nor any message in
// it outlives the call — the transport decodes the next batch into the same
// messages — so a receiver copies what it keeps, Payload included.
type BatchReceiver interface {
	Receiver
	ReceiveBatch(ms []*Message, at time.Duration)
}

// Context gives layers access to their process identity and time source.
type Context struct {
	// ID is the process the layer belongs to.
	ID ProcessID
	// Clock is the process's time source (virtual or real).
	Clock sim.Clock
}

// Layer is one protocol layer in a process stack. Wiring (SetBelow,
// SetAbove) happens before Init; Init may start timers; Stop must cancel
// them. A layer forwards downward traffic (its Send, fed by the layer
// above) to the Sender below it and upward traffic (its Receive, fed by the
// layer below) to the Receiver above it.
type Layer interface {
	Receiver
	Sender
	// SetBelow wires the layer's downward output.
	SetBelow(s Sender)
	// SetAbove wires the layer's upward output.
	SetAbove(r Receiver)
	// Init starts the layer's active behaviour, if any.
	Init(ctx *Context) error
	// Stop halts the layer's active behaviour.
	Stop()
}

// Base provides the passive-layer plumbing: it stores the neighbours and
// forwards in both directions. Embed it and override what the layer
// intercepts. The zero value is ready to use. Wiring and forwarding are
// safe for concurrent use: on a real network, packets can arrive on the
// transport goroutine while the stack is still starting.
type Base struct {
	below atomic.Value // senderBox
	above atomic.Value // receiverBox
}

type senderBox struct{ s Sender }
type receiverBox struct{ r Receiver }

// SetBelow stores the downward neighbour.
func (b *Base) SetBelow(s Sender) { b.below.Store(senderBox{s: s}) }

// SetAbove stores the upward neighbour.
func (b *Base) SetAbove(r Receiver) { b.above.Store(receiverBox{r: r}) }

// Send forwards a message down the stack; it silently drops the message if
// the layer is the bottom of an unwired stack.
func (b *Base) Send(m *Message) {
	if v, ok := b.below.Load().(senderBox); ok && v.s != nil {
		v.s.Send(m)
	}
}

// Receive forwards a message up the stack; it silently drops the message at
// the top of the stack.
func (b *Base) Receive(m *Message) {
	if v, ok := b.above.Load().(receiverBox); ok && v.r != nil {
		v.r.Receive(m)
	}
}

// Init is a no-op for passive layers.
func (b *Base) Init(*Context) error { return nil }

// Stop is a no-op for passive layers.
func (b *Base) Stop() {}

// Network attaches process stacks to a message-passing medium.
type Network interface {
	// Attach registers a process and its upward delivery target, and
	// returns the Sender the process bottom layer uses to transmit.
	Attach(id ProcessID, r Receiver) (Sender, error)
}

// Process is a stack of layers attached to a network. Layers are given
// top-first: layers[0] receives messages last and sends first.
type Process struct {
	id     ProcessID
	layers []Layer
	ctx    *Context
}

// NewProcess wires layers (top-first) over the network and returns the
// process, ready to Start. Every process attaches to the network exactly
// once.
func NewProcess(id ProcessID, clock sim.Clock, net Network, layers ...Layer) (*Process, error) {
	if len(layers) == 0 {
		return nil, fmt.Errorf("neko: process %d needs at least one layer", id)
	}
	if clock == nil {
		return nil, fmt.Errorf("neko: process %d needs a clock", id)
	}
	if net == nil {
		return nil, fmt.Errorf("neko: process %d needs a network", id)
	}
	// Wire the layers among themselves before attaching to the network:
	// a real transport may deliver packets the moment it has a receiver.
	for i := 0; i < len(layers)-1; i++ {
		layers[i].SetBelow(layers[i+1])
		layers[i+1].SetAbove(layers[i])
	}
	bottom := layers[len(layers)-1]
	sender, err := net.Attach(id, bottom)
	if err != nil {
		return nil, fmt.Errorf("attach process %d: %w", id, err)
	}
	bottom.SetBelow(sender)
	return &Process{
		id:     id,
		layers: layers,
		ctx:    &Context{ID: id, Clock: clock},
	}, nil
}

// ID returns the process identifier.
func (p *Process) ID() ProcessID { return p.id }

// Start initializes the layers bottom-up so that lower layers are live
// before upper layers begin emitting.
func (p *Process) Start() error {
	for i := len(p.layers) - 1; i >= 0; i-- {
		if err := p.layers[i].Init(p.ctx); err != nil {
			for j := i + 1; j < len(p.layers); j++ {
				p.layers[j].Stop()
			}
			return fmt.Errorf("init layer %d of process %d: %w", i, p.id, err)
		}
	}
	return nil
}

// Stop halts the layers top-down.
func (p *Process) Stop() {
	for _, l := range p.layers {
		l.Stop()
	}
}
