package nekostat_test

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"wanfd/internal/core"
	"wanfd/internal/experiment"
	"wanfd/internal/nekostat"
	"wanfd/internal/store"
	"wanfd/internal/telemetry"
)

// step is one entry of a generated transition stream, in delivery order:
// a peer's accuracy window opening (open) or one of its transitions.
type step struct {
	peer      string
	open      bool
	suspected bool
	at        time.Duration
}

// genStream turns fuzz bytes into a transition stream over three peers.
// Stamps are non-decreasing in delivery order except for inverted trusts,
// and it covers: duplicate suspects and trusts, trusts with nothing open,
// same-instant suspect/trust pairs (zero-length suspicions), a trust
// stamped before the suspicion it follows, and peers whose window opens
// mid-stream (a peer opens at its first step). An inverted trust is
// stamped no earlier than the peer's previous stamp — the reader's batch
// stamp precedes the suspicion, not the transitions before it — so the
// time-sorted view orders it between that stamp and the suspicion.
func genStream(data []byte) (steps []step, end time.Duration) {
	peers := [...]string{"alpha", "beta", "gamma"}
	var (
		now       time.Duration
		opened    [3]bool
		suspected [3]bool
		last      [3]time.Duration
	)
	emit := func(p int, suspected bool, at time.Duration) {
		steps = append(steps, step{peer: peers[p], suspected: suspected, at: at})
	}
	for i := 0; i+1 < len(data); i += 2 {
		b, dt := data[i], data[i+1]
		now += time.Duration(dt%32) * 7 * time.Millisecond
		p := int(b) % 3
		if !opened[p] {
			opened[p], last[p] = true, now
			steps = append(steps, step{peer: peers[p], open: true, at: now})
		}
		switch (b / 3) % 8 {
		case 0, 1: // suspect, a duplicate when one is open
			emit(p, true, now)
			suspected[p] = true
		case 2, 3: // trust, closing nothing when none is open
			emit(p, false, now)
			suspected[p] = false
		case 4: // a zero-length suspicion
			emit(p, true, now)
			emit(p, false, now)
			suspected[p] = false
		case 5: // a suspicion, then a trust stamped before it
			if !suspected[p] {
				emit(p, true, now)
				emit(p, false, last[p]+(now-last[p])/2)
				suspected[p] = true
			}
		default: // time passes
			continue
		}
		last[p] = now
	}
	return steps, now + 1
}

// pathCounts is what each accounting path must agree on.
type pathCounts struct {
	mistakes, recurrences int
	tmSum, tmrSum         time.Duration
}

// fromSamples sums millisecond samples back to nanoseconds. Each sample is
// float64(d)/1e6 of a duration d far below 2^53 ns, so rounding recovers d
// exactly and the sums compare exactly.
func fromSamples(ms []float64) time.Duration {
	var sum time.Duration
	for _, x := range ms {
		sum += time.Duration(math.Round(x * 1e6))
	}
	return sum
}

// checkPaths feeds one generated stream through the live bundles, a store
// recorder plus Store.Query and nekostat.QoSFromEvents, and checks that
// all three count the same mistakes and recurrences with the same T_M and
// T_MR sums. Store.Query reports only Summary means of millisecond
// samples, so its sums are mean·N and may differ from the exact ones by
// float rounding: they are held to 1 ns. It also checks that P_A is in
// [0, 1] on every path, ReplayWindow's included, and that merging a single
// run keeps its P_A.
func checkPaths(t *testing.T, data []byte) {
	t.Helper()
	steps, end := genStream(data)
	reg := telemetry.NewRegistry(0)
	col := nekostat.NewCollector()
	st, err := store.Open(store.Config{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	opens := make(map[string]time.Duration)
	bundles := make(map[string]*telemetry.DetectorMetrics)
	var order []string
	for _, s := range steps {
		if s.open {
			bundles[s.peer] = reg.DetectorMetrics(s.peer)
			bundles[s.peer].OpenQoS(s.at)
			opens[s.peer] = s.at
			order = append(order, s.peer)
			// One heartbeat sample gives the exported window a stream to
			// replay.
			st.Recorder(s.peer).Sample(0, s.at, s.at)
			continue
		}
		bundles[s.peer].Transition(s.suspected, s.at)
		st.Recorder(s.peer).Transition(s.suspected, s.at)
		if s.suspected {
			col.OnSuspect(s.peer, s.at)
		} else {
			col.OnTrust(s.peer, s.at)
		}
		// The bundle's P_A, the value the monitor's collector exports.
		var sample telemetry.PeerSample
		bundles[s.peer].Sample(&sample)
		if pa := sample.PA; pa < 0 || pa > 1 {
			t.Fatalf("%s: live P_A gauge %v after %+v", s.peer, pa, s)
		}
	}
	if err := st.Sync(); err != nil {
		t.Fatal(err)
	}
	if d := st.Stats().Dropped; d != 0 {
		t.Fatalf("store dropped %d records", d)
	}
	events := col.Events()
	inRange := func(what string, pa float64) {
		t.Helper()
		if pa < 0 || pa > 1 || math.IsNaN(pa) {
			t.Errorf("%s: P_A = %v outside [0, 1]", what, pa)
		}
	}
	for _, peer := range order {
		from := opens[peer]
		live, ok := bundles[peer].Window()
		if !ok {
			t.Fatalf("%s: no live accountant", peer)
		}
		inRange(peer+" live", live.PA(end))
		want := pathCounts{live.Mistakes, live.Recurrences, live.TMSum, live.TMRSum}

		q, err := nekostat.QoSFromEvents(events, peer, from, end)
		if err != nil {
			t.Fatal(err)
		}
		if got := (pathCounts{q.Mistakes, q.TMR.N, fromSamples(q.RawTM), fromSamples(q.RawTMR)}); got != want {
			t.Errorf("%s: QoSFromEvents counts %+v, live %+v", peer, got, want)
		}
		inRange(peer+" ComputeQoS", q.PA)
		merged, err := nekostat.MergeQoS([]nekostat.QoS{q})
		if err != nil {
			t.Fatal(err)
		}
		if merged.PA != q.PA {
			t.Errorf("%s: MergeQoS of one run P_A %v, ComputeQoS %v", peer, merged.PA, q.PA)
		}

		rep, err := st.Query(from, end, peer)
		if err != nil {
			t.Fatal(err)
		}
		if len(rep.Peers) != 1 {
			t.Fatalf("%s: Query returned %d peers", peer, len(rep.Peers))
		}
		w := rep.Peers[0].QoS
		if w.Mistakes != want.mistakes || w.TMR.N != want.recurrences {
			t.Errorf("%s: Store.Query counts %d/%d, live %d/%d", peer, w.Mistakes, w.TMR.N, want.mistakes, want.recurrences)
		}
		for _, c := range []struct {
			name  string
			mean  float64
			n     int
			exact time.Duration
		}{{"T_M", w.TM.Mean, w.TM.N, want.tmSum}, {"T_MR", w.TMR.Mean, w.TMR.N, want.tmrSum}} {
			if d := c.mean*float64(c.n)*1e6 - float64(c.exact); math.Abs(d) > 1 {
				t.Errorf("%s: Store.Query %s sum off by %.3g ns", peer, c.name, d)
			}
		}
		inRange(peer+" Store.Query", w.PA)

		win, err := st.Export(from, end, peer)
		if err != nil {
			t.Fatal(err)
		}
		win.Eta = time.Second
		res, err := experiment.ReplayWindow(win, experiment.ReplayConfig{Combos: []core.Combo{{Predictor: "LAST", Margin: "JAC_med"}}})
		if err != nil {
			t.Fatal(err)
		}
		rec := res.Recorded
		if got := (pathCounts{rec.Mistakes, rec.Recurrences, rec.TMSum, rec.TMRSum}); got != want {
			t.Errorf("%s: ReplayWindow recorded counts %+v, live %+v", peer, got, want)
		}
		inRange(peer+" replay recorded", rec.PA(end-from))
		for name, a := range res.Replayed {
			inRange(peer+" replayed "+name, a.PA(end-from))
		}
	}
}

// fuzzSeeds are hand-made streams: each action alone, and the races
// together.
var fuzzSeeds = [][]byte{
	{0, 1, 6, 10, 0, 20, 6, 30},            // alpha: suspect, trust, suspect, trust
	{0, 1, 0, 1, 6, 1, 6, 1},               // duplicate suspects and trusts
	{6, 3, 9, 0, 6, 0},                     // trusts with nothing open
	{12, 0, 12, 0, 12, 5},                  // zero-length suspicions at one instant
	{15, 4, 6, 9, 15, 2, 6, 7},             // a trust stamped before its suspicion
	{0, 2, 1, 3, 6, 4, 7, 9, 2, 1, 8, 12},  // peers joining mid-stream
	{0, 1, 6, 2, 0, 0, 6, 31, 0, 1, 6, 31}, // a mistake longer than its recurrence
}

// FuzzAccountingPaths is the differential check of checkPaths; its seed
// corpus runs with every go test.
func FuzzAccountingPaths(f *testing.F) {
	for _, s := range fuzzSeeds {
		f.Add(s)
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 16; i++ {
		b := make([]byte, 2*(8+rng.Intn(56)))
		rng.Read(b)
		f.Add(b)
	}
	f.Fuzz(checkPaths)
}

// TestOnePARule pins the single P_A rule. A run whose formula value is
// negative (two mistakes 0.5 s apart, the second 19.5 s long) reports the
// timeline measure, and merging it alone keeps that; then every generated
// stream keeps P_A in [0, 1] on every path.
func TestOnePARule(t *testing.T) {
	sec := func(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }
	susp := []nekostat.Interval{{Start: sec(10), End: sec(10.5)}, {Start: sec(10.5), End: sec(30)}}
	q, err := nekostat.ComputeQoS("d", susp, nil, 0, sec(100))
	if err != nil {
		t.Fatal(err)
	}
	if want := 1 - 20.0/100; math.Abs(q.PA-want) > 1e-12 {
		t.Errorf("ComputeQoS P_A = %v, want the timeline measure %v", q.PA, want)
	}
	m, err := nekostat.MergeQoS([]nekostat.QoS{q})
	if err != nil {
		t.Fatal(err)
	}
	if m.PA != q.PA {
		t.Errorf("MergeQoS of one run: P_A %v, ComputeQoS %v", m.PA, q.PA)
	}
	if err := quick.Check(func(data []byte) bool { checkPaths(t, data); return !t.Failed() }, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
