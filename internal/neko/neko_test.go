package neko

import (
	"errors"
	"testing"
	"time"

	"wanfd/internal/sim"
	"wanfd/internal/wan"
)

// captureLayer records every message that reaches it from below.
type captureLayer struct {
	Base
	got []Message
}

func (c *captureLayer) Receive(m *Message) { c.got = append(c.got, *m) }

// echoLayer immediately echoes each received message back to its sender
// with the type bumped.
type echoLayer struct {
	Base
	ctx *Context
}

func (e *echoLayer) Init(ctx *Context) error { e.ctx = ctx; return nil }

func (e *echoLayer) Receive(m *Message) {
	e.Send(&Message{From: m.To, To: m.From, Type: m.Type + 1, Seq: m.Seq})
}

// senderLayer sends a burst of messages at Init time.
type senderLayer struct {
	Base
	to ProcessID
	n  int64
}

func (s *senderLayer) Init(ctx *Context) error {
	for i := int64(0); i < s.n; i++ {
		s.Send(&Message{From: ctx.ID, To: s.to, Type: MsgHeartbeat, Seq: i, SentAt: ctx.Clock.Now()})
	}
	return nil
}

func newLosslessSimNet(t *testing.T, eng *sim.Engine, delay time.Duration) *SimNetwork {
	t.Helper()
	net, err := NewSimNetwork(eng, func() (*wan.Channel, error) {
		return wan.NewChannel(wan.ChannelConfig{Delay: &wan.ConstantDelay{D: delay}})
	})
	if err != nil {
		t.Fatal(err)
	}
	return net
}

func TestProcessValidation(t *testing.T) {
	eng := sim.NewEngine()
	net := newLosslessSimNet(t, eng, 0)
	if _, err := NewProcess(1, eng, net); err == nil {
		t.Error("no layers should be rejected")
	}
	if _, err := NewProcess(1, nil, net, &captureLayer{}); err == nil {
		t.Error("nil clock should be rejected")
	}
	if _, err := NewProcess(1, eng, nil, &captureLayer{}); err == nil {
		t.Error("nil network should be rejected")
	}
}

func TestSimNetworkDelivery(t *testing.T) {
	eng := sim.NewEngine()
	net := newLosslessSimNet(t, eng, 10*time.Millisecond)

	rx := &captureLayer{}
	if _, err := NewProcess(2, eng, net, rx); err != nil {
		t.Fatal(err)
	}
	tx, err := NewProcess(1, eng, net, &senderLayer{to: 2, n: 3})
	if err != nil {
		t.Fatal(err)
	}
	if err := tx.Start(); err != nil {
		t.Fatal(err)
	}
	if err := eng.RunAll(); err != nil {
		t.Fatal(err)
	}
	if len(rx.got) != 3 {
		t.Fatalf("received %d messages, want 3", len(rx.got))
	}
	for i, m := range rx.got {
		if m.Seq != int64(i) || m.From != 1 || m.To != 2 {
			t.Errorf("message %d = %+v", i, m)
		}
	}
	delivered, dropped, unroutable := net.Stats()
	if delivered != 3 || dropped != 0 || unroutable != 0 {
		t.Errorf("stats = %d/%d/%d, want 3/0/0", delivered, dropped, unroutable)
	}
}

func TestSimNetworkUnroutable(t *testing.T) {
	eng := sim.NewEngine()
	net := newLosslessSimNet(t, eng, 0)
	p, err := NewProcess(1, eng, net, &senderLayer{to: 99, n: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Start(); err != nil {
		t.Fatal(err)
	}
	if err := eng.RunAll(); err != nil {
		t.Fatal(err)
	}
	_, _, unroutable := net.Stats()
	if unroutable != 2 {
		t.Errorf("unroutable = %d, want 2", unroutable)
	}
}

func TestSimNetworkDoubleAttach(t *testing.T) {
	eng := sim.NewEngine()
	net := newLosslessSimNet(t, eng, 0)
	if _, err := net.Attach(1, &captureLayer{}); err != nil {
		t.Fatal(err)
	}
	if _, err := net.Attach(1, &captureLayer{}); err == nil {
		t.Error("double attach should be rejected")
	}
	if _, err := net.Attach(2, nil); err == nil {
		t.Error("nil receiver should be rejected")
	}
}

func TestSimNetworkExplicitChannel(t *testing.T) {
	eng := sim.NewEngine()
	net, err := NewSimNetwork(eng, nil) // no default: unconfigured links drop
	if err != nil {
		t.Fatal(err)
	}
	ch, err := wan.NewChannel(wan.ChannelConfig{Delay: &wan.ConstantDelay{D: 5 * time.Millisecond}})
	if err != nil {
		t.Fatal(err)
	}
	net.SetChannel(1, 2, ch)

	rx := &captureLayer{}
	if _, err := NewProcess(2, eng, net, rx); err != nil {
		t.Fatal(err)
	}
	tx, err := NewProcess(1, eng, net, &senderLayer{to: 2, n: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := tx.Start(); err != nil {
		t.Fatal(err)
	}
	if err := eng.RunAll(); err != nil {
		t.Fatal(err)
	}
	if len(rx.got) != 1 {
		t.Fatalf("received %d, want 1 over explicit channel", len(rx.got))
	}
	if eng.Now() != 5*time.Millisecond {
		t.Errorf("delivery time %v, want 5ms", eng.Now())
	}
}

func TestSimNetworkNoRouteWithoutDefault(t *testing.T) {
	eng := sim.NewEngine()
	net, err := NewSimNetwork(eng, nil)
	if err != nil {
		t.Fatal(err)
	}
	rx := &captureLayer{}
	if _, err := NewProcess(2, eng, net, rx); err != nil {
		t.Fatal(err)
	}
	tx, err := NewProcess(1, eng, net, &senderLayer{to: 2, n: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := tx.Start(); err != nil {
		t.Fatal(err)
	}
	if err := eng.RunAll(); err != nil {
		t.Fatal(err)
	}
	if len(rx.got) != 0 {
		t.Error("message delivered over unconfigured link")
	}
	_, _, unroutable := net.Stats()
	if unroutable != 1 {
		t.Errorf("unroutable = %d, want 1", unroutable)
	}
}

func TestSimNetworkRequiresEngine(t *testing.T) {
	if _, err := NewSimNetwork(nil, nil); err == nil {
		t.Error("nil engine should be rejected")
	}
}

func TestStackLayerOrderingAndEcho(t *testing.T) {
	eng := sim.NewEngine()
	net := newLosslessSimNet(t, eng, time.Millisecond)

	// Process 2 echoes; process 1 captures replies above its sender.
	echo, err := NewProcess(2, eng, net, &echoLayer{})
	if err != nil {
		t.Fatal(err)
	}
	cap1 := &captureLayer{}
	src, err := NewProcess(1, eng, net, cap1, &senderLayer{to: 2, n: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := echo.Start(); err != nil {
		t.Fatal(err)
	}
	if err := src.Start(); err != nil {
		t.Fatal(err)
	}
	if err := eng.RunAll(); err != nil {
		t.Fatal(err)
	}
	if len(cap1.got) != 1 {
		t.Fatalf("echo replies = %d, want 1", len(cap1.got))
	}
	if cap1.got[0].Type != MsgHeartbeat+1 || cap1.got[0].From != 2 {
		t.Errorf("reply = %+v", cap1.got[0])
	}
	echo.Stop()
	src.Stop()
}

func TestProcessStartFailureStopsStartedLayers(t *testing.T) {
	eng := sim.NewEngine()
	net := newLosslessSimNet(t, eng, 0)
	failing := &failingLayer{}
	tracking := &trackingLayer{}
	p, err := NewProcess(1, eng, net, failing, tracking)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Start(); err == nil {
		t.Fatal("Start should propagate the init failure")
	}
	if !tracking.stopped {
		t.Error("already-initialized lower layer was not stopped after failure")
	}
}

type failingLayer struct{ Base }

func (f *failingLayer) Init(*Context) error { return errors.New("boom") }

type trackingLayer struct {
	Base
	stopped bool
}

func (l *trackingLayer) Stop() { l.stopped = true }

func TestMessageCopySemantics(t *testing.T) {
	// The network must copy messages so a sender reusing its buffer does
	// not corrupt in-flight messages.
	eng := sim.NewEngine()
	net := newLosslessSimNet(t, eng, 10*time.Millisecond)
	rx := &captureLayer{}
	if _, err := NewProcess(2, eng, net, rx); err != nil {
		t.Fatal(err)
	}
	sender, err := net.Attach(1, &captureLayer{})
	if err != nil {
		t.Fatal(err)
	}
	m := &Message{From: 1, To: 2, Type: MsgHeartbeat, Seq: 7}
	sender.Send(m)
	m.Seq = 999 // mutate after send
	if err := eng.RunAll(); err != nil {
		t.Fatal(err)
	}
	if len(rx.got) != 1 || rx.got[0].Seq != 7 {
		t.Errorf("got %+v, want Seq 7 (copy semantics)", rx.got)
	}
}

func TestBaseUnwiredDropsSilently(t *testing.T) {
	var b Base
	b.Send(&Message{})    // must not panic
	b.Receive(&Message{}) // must not panic
	if err := b.Init(nil); err != nil {
		t.Errorf("Base.Init = %v", err)
	}
	b.Stop()
}
