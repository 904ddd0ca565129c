package neko

import (
	"fmt"

	"wanfd/internal/sim"
	"wanfd/internal/wan"
)

// SimNetwork delivers messages through per-direction wan.Channel models on
// a discrete-event engine — the simulated-network driver of the framework.
// It is single-threaded by construction (everything runs inside engine
// events).
type SimNetwork struct {
	engine    *sim.Engine
	channels  map[link]*wan.Channel
	receivers map[ProcessID]Receiver
	// DefaultChannel, when non-nil, serves any link without an explicit
	// channel.
	defaultCh func() (*wan.Channel, error)

	delivered  uint64
	dropped    uint64
	unroutable uint64
}

type link struct {
	from, to ProcessID
}

// NewSimNetwork creates a simulated network on engine. newDefault, if
// non-nil, lazily builds a channel for each (from, to) pair on first use;
// links can also be configured explicitly with SetChannel.
func NewSimNetwork(engine *sim.Engine, newDefault func() (*wan.Channel, error)) (*SimNetwork, error) {
	if engine == nil {
		return nil, fmt.Errorf("neko: sim network needs an engine")
	}
	return &SimNetwork{
		engine:    engine,
		channels:  make(map[link]*wan.Channel),
		receivers: make(map[ProcessID]Receiver),
		defaultCh: newDefault,
	}, nil
}

// SetChannel installs the channel carrying messages from one process to
// another (one direction).
func (n *SimNetwork) SetChannel(from, to ProcessID, c *wan.Channel) {
	n.channels[link{from, to}] = c
}

var _ Network = (*SimNetwork)(nil)

// Attach implements Network.
func (n *SimNetwork) Attach(id ProcessID, r Receiver) (Sender, error) {
	if r == nil {
		return nil, fmt.Errorf("neko: process %d attached a nil receiver", id)
	}
	if _, dup := n.receivers[id]; dup {
		return nil, fmt.Errorf("neko: process %d attached twice", id)
	}
	n.receivers[id] = r
	return &simSender{net: n, from: id}, nil
}

type simSender struct {
	net  *SimNetwork
	from ProcessID
}

func (s *simSender) Send(m *Message) {
	s.net.transmit(s.from, m)
}

func (n *SimNetwork) transmit(from ProcessID, m *Message) {
	dst, ok := n.receivers[m.To]
	if !ok {
		n.unroutable++
		return
	}
	ch, err := n.channelFor(from, m.To)
	if err != nil || ch == nil {
		n.unroutable++
		return
	}
	deliverAt, ok := ch.Transmit(n.engine.Now())
	if !ok {
		n.dropped++
		return
	}
	msg := *m // copy: the sender may reuse its message
	n.engine.At(deliverAt, func() {
		n.delivered++
		dst.Receive(&msg)
	})
}

func (n *SimNetwork) channelFor(from, to ProcessID) (*wan.Channel, error) {
	l := link{from, to}
	if c, ok := n.channels[l]; ok {
		return c, nil
	}
	if n.defaultCh == nil {
		return nil, nil
	}
	c, err := n.defaultCh()
	if err != nil {
		return nil, err
	}
	n.channels[l] = c
	return c, nil
}

// Stats reports delivered, channel-dropped and unroutable message counts.
func (n *SimNetwork) Stats() (delivered, dropped, unroutable uint64) {
	return n.delivered, n.dropped, n.unroutable
}
