package layers

import (
	"testing"
	"time"

	"wanfd/internal/neko"
	"wanfd/internal/sim"
)

// memberEta reads one member's current sending period.
func memberEta(t *testing.T, g *HeartbeaterGroup, to neko.ProcessID) time.Duration {
	t.Helper()
	g.mu.Lock()
	defer g.mu.Unlock()
	m := g.memberLocked(to)
	if m == nil {
		t.Fatalf("peer %d not in group", to)
	}
	return m.eta
}

func TestHeartbeaterValidation(t *testing.T) {
	if _, err := NewHeartbeaterGroup(0, 2); err == nil {
		t.Error("zero eta should be rejected")
	}
}

func TestHeartbeaterGroupValidation(t *testing.T) {
	if _, err := NewHeartbeaterGroup(time.Second, 2, 2); err == nil {
		t.Error("duplicate initial member should be rejected")
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
	g, err := NewHeartbeaterGroup(eta, members...)
	if err != nil {
		t.Fatal(err)
	}
	p, err := neko.NewProcess(1, eng, net, g)
	if err != nil {
		t.Fatal(err)
	}
	return eng, p, g, caps
}

// TestHeartbeaterGroupPeriodicSending pins the paper's grid on a one-member
// group: heartbeat i carries seq i and is stamped σ_i = i·η, the first one
// going out at Init.
func TestHeartbeaterGroupPeriodicSending(t *testing.T) {
	eng, p, g, caps := groupHarness(t, time.Second, []neko.ProcessID{2})
	if err := p.Start(); err != nil {
		t.Fatal(err)
	}
	if err := eng.Run(4*time.Second + 500*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	p.Stop()
	if err := eng.RunAll(); err != nil {
		t.Fatal(err)
	}
	got := caps[2].got
	if len(got) != 5 { // seq 0..4 sent at 0,1,2,3,4 s
		t.Fatalf("received %d heartbeats, want 5", len(got))
	}
	for i, m := range got {
		if m.Seq != int64(i) {
			t.Errorf("heartbeat %d has seq %d", i, m.Seq)
		}
		if m.Type != neko.MsgHeartbeat {
			t.Errorf("heartbeat %d has type %v", i, m.Type)
		}
		if want := time.Duration(i) * time.Second; m.SentAt != want {
			t.Errorf("heartbeat %d SentAt = %v, want %v", i, m.SentAt, want)
		}
	}
	if g.Sent() != 5 {
		t.Errorf("Sent = %d, want 5", g.Sent())
	}
}

// TestHeartbeaterGroupGridPerMember pins the per-member sending grid: each
// member's heartbeats carry consecutive sequence numbers and nominal send
// stamps exactly η apart — the grid discipline the monitor-side freshness
// points assume.
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
		got := caps[id].got
		if want := int(horizon/eta) + 1; len(got) != want {
			t.Fatalf("member %d received %d heartbeats over %v, want %d", id, len(got), horizon, want)
		}
		for i, m := range got {
			if m.Seq != int64(i) {
				t.Errorf("member %d heartbeat %d has seq %d", id, i, m.Seq)
			}
			if m.Type != neko.MsgHeartbeat {
				t.Errorf("member %d heartbeat %d has type %v", id, i, m.Type)
			}
			if want := time.Duration(i) * eta; m.SentAt != want {
				t.Errorf("member %d heartbeat %d SentAt = %v, want %v", id, i, m.SentAt, want)
			}
		}
		total += uint64(len(got))
	}
	if g.Sent() != total {
		t.Errorf("Sent = %d, want %d", g.Sent(), total)
	}
}

// TestHeartbeaterGroupSharedGrid pins the absence of a phase stagger: a
// two-member group started at t₀ sends both members' heartbeat i at
// t₀ + i·η, and both arrive at the same instant over equal links.
func TestHeartbeaterGroupSharedGrid(t *testing.T) {
	const eta, t0 = time.Second, 2300 * time.Millisecond
	const delay = 10 * time.Millisecond // groupHarness's link delay
	eng, p, _, caps := groupHarness(t, eta, []neko.ProcessID{2, 3})
	for _, rx := range caps {
		rx.clock = eng
	}
	if err := eng.Run(t0); err != nil {
		t.Fatal(err)
	}
	if err := p.Start(); err != nil {
		t.Fatal(err)
	}
	if err := eng.Run(t0 + 4*eta); err != nil {
		t.Fatal(err)
	}
	p.Stop()
	if err := eng.RunAll(); err != nil {
		t.Fatal(err)
	}
	for _, id := range []neko.ProcessID{2, 3} {
		got := caps[id].got
		if len(got) != 5 {
			t.Fatalf("member %d received %d heartbeats, want 5", id, len(got))
		}
		for i, m := range got {
			want := t0 + time.Duration(i)*eta
			if m.Seq != int64(i) || m.SentAt != want {
				t.Errorf("member %d heartbeat %d = seq %d at %v, want seq %d at %v", id, i, m.Seq, m.SentAt, i, want)
			}
			if at := caps[id].at[i]; at != want+delay {
				t.Errorf("member %d heartbeat %d arrived at %v, want %v", id, i, at, want+delay)
			}
		}
	}
}

// TestHeartbeaterGroupMembershipLive pins dynamic membership: a member
// added mid-run starts a fresh grid anchored at the add instant, and a
// removed member stops receiving from the remove instant on while the rest
// of the group keeps its grid.
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
	g, err := NewHeartbeaterGroup(eta, 2)
	if err != nil {
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

	// Member 2 ticked at i·η until the remove instant.
	if want := int(removeAt/eta) + 1; len(cap2.got) != want {
		t.Fatalf("member 2 received %d heartbeats, want %d", len(cap2.got), want)
	}
	for i, m := range cap2.got {
		if m.Seq != int64(i) {
			t.Errorf("member 2 heartbeat %d has seq %d", i, m.Seq)
		}
		if m.SentAt > removeAt {
			t.Errorf("member 2 heartbeat %d stamped %v, after its removal at %v", i, m.SentAt, removeAt)
		}
	}
	// Member 5's grid is anchored at the add instant.
	if want := int((stopAt-addAt)/eta) + 1; len(cap5.got) != want {
		t.Fatalf("member 5 received %d heartbeats, want %d", len(cap5.got), want)
	}
	for i, m := range cap5.got {
		if m.Seq != int64(i) {
			t.Errorf("member 5 heartbeat %d has seq %d", i, m.Seq)
		}
		if wantSent := addAt + time.Duration(i)*eta; m.SentAt != wantSent {
			t.Errorf("member 5 heartbeat %d SentAt = %v, want %v", i, m.SentAt, wantSent)
		}
	}
}

// TestHeartbeaterSetIntervalValidation pins SetInterval on a one-member
// group before Init: a zero period is rejected and leaves η alone, and a
// good one is only recorded.
func TestHeartbeaterSetIntervalValidation(t *testing.T) {
	g, err := NewHeartbeaterGroup(time.Second, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := g.SetInterval(2, 0); err == nil {
		t.Error("zero interval should be rejected")
	}
	if eta := memberEta(t, g, 2); eta != time.Second {
		t.Errorf("interval = %v, want unchanged 1s", eta)
	}
	if err := g.SetInterval(2, 2*time.Second); err != nil {
		t.Fatal(err)
	}
	if eta := memberEta(t, g, 2); eta != 2*time.Second {
		t.Errorf("interval = %v before Init, want 2s", eta)
	}
}

// TestHeartbeaterRejectsBadControl pins the control path of a one-member
// group: a negative MsgSetInterval changes nothing, and every other message
// passes up.
func TestHeartbeaterRejectsBadControl(t *testing.T) {
	g, err := NewHeartbeaterGroup(time.Second, 2)
	if err != nil {
		t.Fatal(err)
	}
	g.Receive(&neko.Message{From: 2, Type: MsgSetInterval, Seq: -5})
	if eta := memberEta(t, g, 2); eta != time.Second {
		t.Errorf("negative control changed interval to %v", eta)
	}
	top := &captureLayer{}
	g.SetAbove(top)
	g.Receive(&neko.Message{From: 2, Type: neko.MsgUser, Seq: 3})
	if len(top.got) != 1 {
		t.Error("non-control message not passed up")
	}
}

// TestHeartbeaterIntervalChangeMidRun pins the adaptable period on a
// one-member group: after MsgSetInterval at 4.5 s the grid restarts one new
// period later on the new η, and sequence numbers stay consecutive across
// the switch.
func TestHeartbeaterIntervalChangeMidRun(t *testing.T) {
	const fast = 250 * time.Millisecond
	const switchAt, horizon = 4500 * time.Millisecond, 8500 * time.Millisecond
	eng, p, g, caps := groupHarness(t, time.Second, []neko.ProcessID{2})
	if err := p.Start(); err != nil {
		t.Fatal(err)
	}
	if err := eng.Run(switchAt); err != nil {
		t.Fatal(err)
	}
	before := len(caps[2].got)
	g.Receive(&neko.Message{From: 2, Type: MsgSetInterval, Seq: int64(fast)})
	if eta := memberEta(t, g, 2); eta != fast {
		t.Fatalf("interval = %v after control message", eta)
	}
	if err := eng.Run(horizon); err != nil {
		t.Fatal(err)
	}
	p.Stop()
	if err := eng.RunAll(); err != nil {
		t.Fatal(err)
	}
	got := caps[2].got
	if want := int((horizon - switchAt) / fast); len(got)-before != want {
		t.Errorf("heartbeats after switch = %d, want %d", len(got)-before, want)
	}
	for i, m := range got {
		if m.Seq != int64(i) {
			t.Fatalf("sequence gap at %d: got seq %d", i, m.Seq)
		}
		if i >= before {
			if want := switchAt + time.Duration(i-before+1)*fast; m.SentAt != want {
				t.Errorf("heartbeat %d SentAt = %v, want %v", i, m.SentAt, want)
			}
		}
	}
}

// TestHeartbeaterGroupSetIntervalValidation pins SetInterval off the
// running grid: unknown members are rejected, and a member whose cycle has
// stopped only records the period; a stopped group stays stopped.
func TestHeartbeaterGroupSetIntervalValidation(t *testing.T) {
	eng, p, g, caps := groupHarness(t, time.Second, []neko.ProcessID{2})
	if err := g.SetInterval(3, time.Second); err == nil {
		t.Error("interval for a non-member should be rejected")
	}
	if err := g.SetInterval(2, 2*time.Second); err != nil {
		t.Fatal(err)
	}

	if err := p.Start(); err != nil {
		t.Fatal(err)
	}
	if err := eng.Run(4500 * time.Millisecond); err != nil { // beats at 0, 2, 4 s
		t.Fatal(err)
	}
	g.Stop()
	if err := g.SetInterval(2, 250*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if eta := memberEta(t, g, 2); eta != 250*time.Millisecond {
		t.Errorf("interval = %v after Stop, want 250ms recorded", eta)
	}
	if err := eng.RunAll(); err != nil {
		t.Fatal(err)
	}
	if got := len(caps[2].got); got != 3 {
		t.Errorf("received %d heartbeats, want 3: SetInterval restarted a stopped group", got)
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
	if got := memberEta(t, g, 2); got != fast {
		t.Fatalf("interval = %v after control message, want %v", got, fast)
	}
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
	for i, m := range caps[3].got {
		if want := time.Duration(i) * eta; m.Seq != int64(i) || m.SentAt != want {
			t.Errorf("member 3 heartbeat %d = seq %d at %v, want seq %d at %v", i, m.Seq, m.SentAt, i, want)
		}
	}
	if want := int(horizon/eta) + 1; len(caps[3].got) != want {
		t.Errorf("member 3 received %d heartbeats, want %d (η unchanged)", len(caps[3].got), want)
	}
	if got := memberEta(t, g, 3); got != eta {
		t.Errorf("member 3 interval = %v, want unchanged %v", got, eta)
	}
}
