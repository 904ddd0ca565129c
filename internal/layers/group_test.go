package layers

import (
	"testing"
	"time"

	"wanfd/internal/neko"
	"wanfd/internal/sim"
)

func TestHeartbeaterGroupValidation(t *testing.T) {
	if _, err := NewHeartbeaterGroup(0); err == nil {
		t.Error("zero eta should be rejected")
	}
	g, err := NewHeartbeaterGroup(time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Add(2, -1); err == nil {
		t.Error("negative start sequence should be rejected")
	}
	if err := g.Add(2, 0); err != nil {
		t.Fatal(err)
	}
	if err := g.Add(2, 0); err == nil {
		t.Error("duplicate member should be rejected")
	}
	if err := g.Remove(3); err == nil {
		t.Error("removing an unknown member should be rejected")
	}
	if got := g.Len(); got != 1 {
		t.Errorf("Len = %d, want 1", got)
	}
	g.Stop()
	if err := g.Add(4, 0); err == nil {
		t.Error("Add after Stop should be rejected")
	}
}

// groupHarness runs a HeartbeaterGroup on process 1 in a sim, with one
// capture process per member id.
func groupHarness(t *testing.T, eta time.Duration, members []neko.ProcessID) (*sim.Engine, *neko.Process, *HeartbeaterGroup, map[neko.ProcessID]*captureLayer) {
	t.Helper()
	eng := sim.NewEngine()
	net := newNet(t, eng, 10*time.Millisecond)
	caps := make(map[neko.ProcessID]*captureLayer)
	for _, id := range members {
		rx := &captureLayer{}
		caps[id] = rx
		if _, err := neko.NewProcess(id, eng, net, rx); err != nil {
			t.Fatal(err)
		}
	}
	g, err := NewHeartbeaterGroup(eta)
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range members {
		if err := g.Add(id, 0); err != nil {
			t.Fatal(err)
		}
	}
	p, err := neko.NewProcess(1, eng, net, g)
	if err != nil {
		t.Fatal(err)
	}
	return eng, p, g, caps
}

// TestHeartbeaterGroupGridPerMember pins the per-member sending grid:
// each member's heartbeats carry consecutive sequence numbers and nominal
// send stamps exactly η apart, anchored at the member's deterministic
// phase offset — the grid discipline the monitor-side freshness points
// assume.
func TestHeartbeaterGroupGridPerMember(t *testing.T) {
	const eta = time.Second
	members := []neko.ProcessID{2, 3, 4}
	eng, p, g, caps := groupHarness(t, eta, members)
	if err := p.Start(); err != nil {
		t.Fatal(err)
	}
	const horizon = 5 * time.Second
	if err := eng.Run(horizon); err != nil {
		t.Fatal(err)
	}
	g.Stop()
	p.Stop()
	if err := eng.RunAll(); err != nil {
		t.Fatal(err)
	}
	var total uint64
	for _, id := range members {
		phase := g.phaseFor(id)
		if phase < 0 || phase >= eta {
			t.Fatalf("phase for %d = %v, want within [0, η)", id, phase)
		}
		got := caps[id].got
		// First tick at the phase offset, then every η up to the horizon.
		want := int((horizon-phase)/eta) + 1
		if len(got) != want {
			t.Fatalf("member %d received %d heartbeats over %v (phase %v), want %d", id, len(got), horizon, phase, want)
		}
		for i, m := range got {
			if m.Seq != int64(i) {
				t.Errorf("member %d heartbeat %d has seq %d", id, i, m.Seq)
			}
			if m.Type != neko.MsgHeartbeat {
				t.Errorf("member %d heartbeat %d has type %v", id, i, m.Type)
			}
			if wantSent := phase + time.Duration(i)*eta; m.SentAt != wantSent {
				t.Errorf("member %d heartbeat %d SentAt = %v, want %v", id, i, m.SentAt, wantSent)
			}
		}
		total += uint64(len(got))
	}
	if g.Sent() != total {
		t.Errorf("Sent = %d, want %d", g.Sent(), total)
	}
}

// TestHeartbeaterGroupStaggersPhases pins the anti-stacking property: the
// id-derived phases of a contiguous block of peers do not collapse onto
// one instant, so a large group's ticks spread across the η interval
// instead of stacking on one wheel slot.
func TestHeartbeaterGroupStaggersPhases(t *testing.T) {
	g, err := NewHeartbeaterGroup(time.Second)
	if err != nil {
		t.Fatal(err)
	}
	distinct := make(map[time.Duration]bool)
	for id := neko.ProcessID(1); id <= 64; id++ {
		distinct[g.phaseFor(id)] = true
	}
	if len(distinct) < 48 {
		t.Errorf("64 contiguous ids map to %d distinct phases — stagger too weak", len(distinct))
	}
}

// TestHeartbeaterGroupTraceEquivalence is the sim-mode A/B pin for the
// batched sender tier: a single-member group produces exactly the classic
// Heartbeater's message trace — same sequence numbers, same η spacing,
// same grid stamping — shifted by the member's deterministic phase
// offset. The batched tier changes when heartbeats leave relative to the
// grid origin, never the grid itself.
func TestHeartbeaterGroupTraceEquivalence(t *testing.T) {
	const eta = time.Second
	const horizon = 10 * time.Second
	run := func(mk func(eng *sim.Engine, net *neko.SimNetwork) *neko.Process) []neko.Message {
		eng := sim.NewEngine()
		net := newNet(t, eng, 10*time.Millisecond)
		rx := &captureLayer{}
		if _, err := neko.NewProcess(2, eng, net, rx); err != nil {
			t.Fatal(err)
		}
		p := mk(eng, net)
		if err := p.Start(); err != nil {
			t.Fatal(err)
		}
		if err := eng.Run(horizon); err != nil {
			t.Fatal(err)
		}
		p.Stop()
		if err := eng.RunAll(); err != nil {
			t.Fatal(err)
		}
		return rx.got
	}

	classic := run(func(eng *sim.Engine, net *neko.SimNetwork) *neko.Process {
		hb, err := NewHeartbeater(2, eta)
		if err != nil {
			t.Fatal(err)
		}
		p, err := neko.NewProcess(1, eng, net, hb)
		if err != nil {
			t.Fatal(err)
		}
		return p
	})
	var g *HeartbeaterGroup
	grouped := run(func(eng *sim.Engine, net *neko.SimNetwork) *neko.Process {
		var err error
		g, err = NewHeartbeaterGroup(eta)
		if err != nil {
			t.Fatal(err)
		}
		if err := g.Add(2, 0); err != nil {
			t.Fatal(err)
		}
		p, err := neko.NewProcess(1, eng, net, g)
		if err != nil {
			t.Fatal(err)
		}
		return p
	})

	phase := g.phaseFor(2)
	if len(classic) == 0 || len(grouped) == 0 {
		t.Fatalf("empty traces: classic %d, grouped %d", len(classic), len(grouped))
	}
	// The group's grid starts phase later, so it fits at most as many
	// ticks in the horizon; every tick it does emit must match the
	// classic trace shifted by exactly the phase.
	if len(grouped) > len(classic) {
		t.Fatalf("grouped trace longer than classic: %d > %d", len(grouped), len(classic))
	}
	if len(classic)-len(grouped) > 1 {
		t.Fatalf("grouped trace lost ticks: classic %d, grouped %d, phase %v", len(classic), len(grouped), phase)
	}
	for i, gm := range grouped {
		cm := classic[i]
		if gm.Seq != cm.Seq || gm.Type != cm.Type || gm.From != cm.From || gm.To != cm.To {
			t.Errorf("tick %d: grouped %+v vs classic %+v", i, gm, cm)
		}
		if gm.SentAt != cm.SentAt+phase {
			t.Errorf("tick %d: grouped SentAt %v, want classic %v + phase %v", i, gm.SentAt, cm.SentAt, phase)
		}
	}
}

// TestHeartbeaterGroupMembershipLive pins dynamic membership: a member
// added mid-run starts a fresh grid anchored at the add instant (plus its
// phase), and a removed member stops receiving from the remove instant on
// while the rest of the group keeps its grid.
func TestHeartbeaterGroupMembershipLive(t *testing.T) {
	const eta = time.Second
	const (
		addAt    = 2500 * time.Millisecond
		removeAt = 5500 * time.Millisecond
		stopAt   = 8500 * time.Millisecond
	)
	eng := sim.NewEngine()
	net := newNet(t, eng, 10*time.Millisecond)
	cap2, cap5 := &captureLayer{}, &captureLayer{}
	if _, err := neko.NewProcess(2, eng, net, cap2); err != nil {
		t.Fatal(err)
	}
	if _, err := neko.NewProcess(5, eng, net, cap5); err != nil {
		t.Fatal(err)
	}
	g, err := NewHeartbeaterGroup(eta)
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Add(2, 0); err != nil {
		t.Fatal(err)
	}
	p, err := neko.NewProcess(1, eng, net, g)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Start(); err != nil {
		t.Fatal(err)
	}
	if err := eng.Run(addAt); err != nil {
		t.Fatal(err)
	}
	if err := g.Add(5, 0); err != nil {
		t.Fatal(err)
	}
	if err := eng.Run(removeAt); err != nil {
		t.Fatal(err)
	}
	if err := g.Remove(2); err != nil {
		t.Fatal(err)
	}
	if err := eng.Run(stopAt); err != nil {
		t.Fatal(err)
	}
	g.Stop()
	p.Stop()
	if err := eng.RunAll(); err != nil {
		t.Fatal(err)
	}

	phase2, phase5 := g.phaseFor(2), g.phaseFor(5)
	// Member 2 ticked at phase2 + i·η until the remove instant.
	want2 := int((removeAt-phase2)/eta) + 1
	if len(cap2.got) != want2 {
		t.Fatalf("member 2 received %d heartbeats, want %d (phase %v)", len(cap2.got), want2, phase2)
	}
	for i, m := range cap2.got {
		if m.Seq != int64(i) {
			t.Errorf("member 2 heartbeat %d has seq %d", i, m.Seq)
		}
		if m.SentAt > removeAt {
			t.Errorf("member 2 heartbeat %d stamped %v, after its removal at %v", i, m.SentAt, removeAt)
		}
	}
	// Member 5's grid is anchored at the add instant plus its phase.
	want5 := int((stopAt-addAt-phase5)/eta) + 1
	if len(cap5.got) != want5 {
		t.Fatalf("member 5 received %d heartbeats, want %d (phase %v)", len(cap5.got), want5, phase5)
	}
	for i, m := range cap5.got {
		if m.Seq != int64(i) {
			t.Errorf("member 5 heartbeat %d has seq %d", i, m.Seq)
		}
		if wantSent := addAt + phase5 + time.Duration(i)*eta; m.SentAt != wantSent {
			t.Errorf("member 5 heartbeat %d SentAt = %v, want %v", i, m.SentAt, wantSent)
		}
	}
}

// TestHeartbeaterGroupSetIntervalPerMember pins the adaptable-period
// command on the group: MsgSetInterval from one member restarts that
// member's grid one new period later, on the new η, with sequence numbers
// still consecutive; the other member's grid does not move; commands from
// non-members and non-positive periods change nothing.
func TestHeartbeaterGroupSetIntervalPerMember(t *testing.T) {
	const eta, fast = time.Second, 250 * time.Millisecond
	const switchAt, horizon = 4500 * time.Millisecond, 8500 * time.Millisecond
	eng, p, g, caps := groupHarness(t, eta, []neko.ProcessID{2, 3})
	if err := p.Start(); err != nil {
		t.Fatal(err)
	}
	if err := eng.Run(switchAt); err != nil {
		t.Fatal(err)
	}
	g.Receive(&neko.Message{From: 2, Type: MsgSetInterval, Seq: -5})
	g.Receive(&neko.Message{From: 9, Type: MsgSetInterval, Seq: int64(fast)})
	before := len(caps[2].got)
	g.Receive(&neko.Message{From: 2, Type: MsgSetInterval, Seq: int64(fast)})
	if err := eng.Run(horizon); err != nil {
		t.Fatal(err)
	}
	g.Stop()
	p.Stop()
	if err := eng.RunAll(); err != nil {
		t.Fatal(err)
	}
	got := caps[2].got
	// Every beat sent up to the horizon arrives (RunAll drains the network).
	if want := int((horizon - switchAt) / fast); len(got)-before != want {
		t.Errorf("member 2 received %d heartbeats after the switch, want %d", len(got)-before, want)
	}
	for i, m := range got {
		if m.Seq != int64(i) {
			t.Fatalf("member 2 heartbeat %d has seq %d", i, m.Seq)
		}
		if i >= before {
			if want := switchAt + time.Duration(i-before+1)*fast; m.SentAt != want {
				t.Errorf("member 2 heartbeat %d SentAt = %v, want %v", i, m.SentAt, want)
			}
		}
	}
	phase := g.phaseFor(3)
	for i, m := range caps[3].got {
		if want := phase + time.Duration(i)*eta; m.Seq != int64(i) || m.SentAt != want {
			t.Errorf("member 3 heartbeat %d = seq %d at %v, want seq %d at %v", i, m.Seq, m.SentAt, i, want)
		}
	}
	if want := int((horizon-phase)/eta) + 1; len(caps[3].got) != want {
		t.Errorf("member 3 received %d heartbeats, want %d (η unchanged)", len(caps[3].got), want)
	}
	// Everything else still passes up.
	top := &captureLayer{}
	g.SetAbove(top)
	g.Receive(&neko.Message{From: 2, Type: neko.MsgUser})
	if len(top.got) != 1 {
		t.Error("non-control message not passed up")
	}
}
