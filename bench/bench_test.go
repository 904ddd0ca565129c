package main

import (
	"encoding/json"
	"math"
	"os"
	"testing"
	"time"
)

func TestQuantiles(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	for _, c := range []struct{ q, want float64 }{{0.5, 500}, {0.99, 990}, {0.999, 999}, {1, 1000}} {
		if got := quantile(xs, c.q); got != c.want {
			t.Errorf("quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	// A percentile needs ten samples beyond it.
	for _, c := range []struct {
		n    int
		q    float64
		want bool
	}{{1000, 0.99, true}, {999, 0.99, false}, {20, 0.5, true}, {19, 0.5, false}, {10000, 0.999, true}} {
		if got := supports(c.n, c.q); got != c.want {
			t.Errorf("supports(%d, %v) = %v, want %v", c.n, c.q, got, c.want)
		}
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("median = %v, want 2.5", m)
	}
	// A tenth off either end of ten values drops the 100 and the 0.
	if m := trimmedMean([]float64{100, 2, 2, 2, 2, 4, 4, 4, 4, 0}, 0.1); m != 3 {
		t.Errorf("trimmedMean = %v, want 3", m)
	}
	if m := trimmedMean([]float64{5}, 0.1); m != 5 {
		t.Errorf("trimmedMean of one value = %v, want 5", m)
	}
	// Python: statistics.quantiles([3,1,4,1,5,9,2,6], n=4) == [1.25, 3.5, 5.75].
	q1, q3 := quartiles([]float64{3, 1, 4, 1, 5, 9, 2, 6})
	if q1 != 1.25 || q3 != 5.75 {
		t.Errorf("quartiles = %v, %v, want 1.25, 5.75", q1, q3)
	}
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25].
	q1, q3 = quartiles([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles = %v, %v, want 2.75, 8.25", q1, q3)
	}
}

func TestSegmentQuantile(t *testing.T) {
	seg := func(n int, base float64) []float64 {
		s := make([]float64, n)
		for i := range s {
			s[i] = base + float64(i)
		}
		return s
	}
	// Every segment supports the p99: one value per segment, median reported.
	vals, n, ok := segmentQuantile([][]float64{seg(1000, 0), seg(1000, 100), seg(1000, 200)}, 0.99)
	if !ok || n != 3000 || len(vals) != 3 {
		t.Fatalf("per-segment: vals %v n %d ok %v", vals, n, ok)
	}
	if med, lo, hi := vals.summary(); med != 1089 || lo != 989 || hi != 1189 {
		t.Errorf("summary = %v %v %v, want 1089 989 1189", med, lo, hi)
	}
	// A segment without samples is passed over, not a reason to pool.
	vals, _, ok = segmentQuantile([][]float64{nil, seg(1000, 0), seg(1000, 100)}, 0.99)
	if !ok || len(vals) != 2 {
		t.Errorf("empty segment: vals %v ok %v", vals, ok)
	}
	// One short segment: the segments are pooled into a single value.
	vals, _, ok = segmentQuantile([][]float64{seg(1000, 0), seg(500, 0)}, 0.99)
	if !ok || len(vals) != 1 {
		t.Errorf("pooled: vals %v ok %v", vals, ok)
	}
	// Too few samples even when pooled: not reported.
	if _, _, ok = segmentQuantile([][]float64{seg(100, 0), seg(100, 0)}, 0.99); ok {
		t.Error("200 samples reported a p99")
	}
}

func TestDisturbedSegments(t *testing.T) {
	p := &plan{warmup: 2 * time.Second, segment: 2 * time.Second}
	for _, c := range []struct {
		at   time.Duration
		want int
	}{{0, -1}, {2*time.Second - 1, -1}, {2 * time.Second, 0}, {4*time.Second - 1, 0},
		{4 * time.Second, 1}, {30*time.Second - 1, 13}, {30 * time.Second, -1}} {
		if got := p.segmentOf(c.at); got != c.want {
			t.Errorf("segmentOf(%v) = %d, want %d", c.at, got, c.want)
		}
	}
	if p.slices() != 280 || p.sliceOf(2*time.Second) != 0 || p.sliceOf(30*time.Second-1) != 279 || p.sliceOf(30*time.Second) != -1 {
		t.Errorf("slices %d, sliceOf edges %d %d %d", p.slices(), p.sliceOf(2*time.Second), p.sliceOf(30*time.Second-1), p.sliceOf(30*time.Second))
	}
	marked := func(g *generator) (out []int) {
		for sl, d := range g.disturbed {
			if d {
				out = append(out, sl)
			}
		}
		return out
	}
	g := &generator{plan: p, disturbed: make([]bool, p.slices())}
	g.noteLate(3*time.Second, 3*time.Second+disturbedLate)   // exactly the limit: fine
	g.noteLate(time.Second, time.Second+50*time.Millisecond) // a stall inside warm-up
	if got := marked(g); len(got) != 0 {
		t.Fatalf("disturbed slices %v, want none", got)
	}
	// A stall costs the slices from the due time to the one after the send.
	g.noteLate(7*time.Second+10*time.Millisecond, 7*time.Second+21*time.Millisecond)
	if got := marked(g); len(got) != 2 || got[0] != 50 || got[1] != 51 {
		t.Errorf("disturbed slices %v, want 50 and 51", got)
	}
	// One that began in warm-up costs the window's first slices; one that
	// runs to the end stops at the last slice.
	g = &generator{plan: p, disturbed: make([]bool, p.slices())}
	g.noteLate(2*time.Second-time.Millisecond, 2*time.Second+120*time.Millisecond)
	g.noteLate(30*time.Second-150*time.Millisecond, 30*time.Second-30*time.Millisecond)
	if got := marked(g); len(got) != 5 || got[0] != 0 || got[2] != 2 || got[3] != 278 || got[4] != 279 {
		t.Errorf("disturbed slices %v, want 0-2 and 278-279", got)
	}
	if g.maxLate != 121*time.Millisecond {
		t.Errorf("maxLate = %v", g.maxLate)
	}
}

func TestPlanShapes(t *testing.T) {
	count := func(p *plan) (bg, probes, hello, rack int) {
		for _, s := range p.streams {
			switch {
			case s.silent != nil:
				rack = len(s.slots)
			case s.once:
				hello = len(s.slots)
			case s.record:
				probes = len(s.slots)
			default:
				bg = len(s.slots)
			}
		}
		return
	}
	for _, w := range workloads {
		if w.fleet == nil {
			continue
		}
		p := buildPlan(*w.fleet, 1, 28, 2*time.Second)
		bg, probes, hello, rack := count(p)
		if bg+probes+rack != w.fleet.peers {
			t.Errorf("%s: %d+%d+%d peers, want %d", w.name, bg, probes, rack, w.fleet.peers)
		}
		switch w.name {
		case "rack_storm":
			if rack != 1024 || probes != 0 || bg != 3072 {
				t.Errorf("%s: rack %d probes %d bg %d", w.name, rack, probes, bg)
			}
		default:
			if probes != w.fleet.peers/4 || hello != probes*3/4 {
				t.Errorf("%s: probes %d hello %d", w.name, probes, hello)
			}
		}
		want := map[string]float64{"fleet_steady": 16640, "fleet_burst": 16640, "fleet_large": 26624, "rack_storm": 20480}[w.name]
		if got := p.offeredRate(); math.Abs(got-want) > 1 {
			t.Errorf("%s: offered %v hb/s, want %v", w.name, got, want)
		}
	}
	// fleet_burst: every group phase carries the same 96 background peers.
	p := buildPlan(*workloads[1].fleet, 7, 28, 2*time.Second)
	perPhase := map[time.Duration]int{}
	for _, sl := range p.streams[0].slots {
		perPhase[sl.phase]++
	}
	if len(perPhase) != 32 {
		t.Fatalf("fleet_burst: %d phases, want 32", len(perPhase))
	}
	for phase, n := range perPhase {
		if n != 96 {
			t.Errorf("fleet_burst: %d background peers at phase %v, want 96", n, phase)
		}
	}
	// The seed moves peers between roles but not the shape.
	a, b := buildPlan(*workloads[0].fleet, 1, 28, 0), buildPlan(*workloads[0].fleet, 2, 28, 0)
	if a.probes[0] == b.probes[0] && a.probes[1] == b.probes[1] && a.probes[2] == b.probes[2] {
		t.Error("seeds 1 and 2 chose the same probes")
	}
	if peerIndex(peerName(0xabc12)) != 0xabc12 {
		t.Error("peerIndex does not invert peerName")
	}
}

// TestRackSilence pins the rack's pauses inside the segments, two to each,
// and out of the warm-up.
func TestRackSilence(t *testing.T) {
	p := buildPlan(*workloads[3].fleet, 1, 28, 2*time.Second)
	rack := p.streams[0]
	if rack.silent == nil {
		t.Fatal("first stream is not the rack")
	}
	var sends []sendRec
	for {
		due, _ := rack.due()
		if due >= p.warmup+p.window() {
			break
		}
		sl := rack.slots[rack.next]
		rack.advance()
		if sl.peer == rack.slots[len(rack.slots)-1].peer && !rack.silent.covers(due-sl.lag) {
			sends = append(sends, sendRec{peer: sl.peer, stamp: due - sl.lag, actual: due})
		}
	}
	gaps := gapsOf(sends, p.spec.eta, p.timeout(), p.warmup+p.window())
	if len(gaps) != 2*numSegments {
		t.Fatalf("%d pauses, want two per segment", len(gaps))
	}
	for i, g := range gaps {
		if p.segmentOf(g.tau) != i/2 || p.segmentOf(g.resume+10*time.Millisecond) != i/2 {
			t.Errorf("pause %d: tau %v resume %v leave segment %d", i, g.tau, g.resume, i/2)
		}
	}
	// The last rack member leaves 63 ticks after the first, yet its stamp is
	// less than one wheel tick younger: the rack's freshness points fill
	// exactly one tick.
	tick := time.Millisecond
	first, last := rack.slots[0], rack.slots[len(rack.slots)-1]
	if first.phase != 0 || first.lag != 0 || last.phase != 63*tick || last.phase-last.lag != tick*15/16 {
		t.Errorf("rack slots first %+v last %+v", first, last)
	}
}

func TestClassifier(t *testing.T) {
	const eta, timeout = 200 * time.Millisecond, 300 * time.Millisecond
	ms := time.Millisecond
	// A probe sending every 800 ms from t=0: freshness points at 500, 1300,
	// 2100 ms; resumes at 800, 1600 ms; the last pause never ends.
	var sends []sendRec
	for k := 0; k < 3; k++ {
		at := time.Duration(k) * 800 * ms
		sends = append(sends, sendRec{stamp: at, actual: at + 300*time.Microsecond})
	}
	gaps := gapsOf(sends, eta, timeout, 3*time.Second)
	if len(gaps) != 3 || gaps[0].tau != 500*ms || gaps[1].resume != 1600*ms+300*time.Microsecond || gaps[2].resume >= 0 {
		t.Fatalf("gaps = %+v", gaps)
	}
	// A heartbeat that left 120 ms after its stamp spoils the six pauses
	// that follow it, not the ones before.
	var slow []sendRec
	for k := 0; k < 10; k++ {
		at := time.Duration(k) * 800 * ms
		rec := sendRec{stamp: at, actual: at}
		if k == 2 {
			rec.actual += 120 * ms
		}
		slow = append(slow, rec)
	}
	for i, g := range gapsOf(slow, eta, timeout, 10*time.Second) {
		if want := i >= 2 && i < 2+taintedSends; g.tainted != want {
			t.Errorf("pause %d: tainted %v, want %v", i, g.tainted, want)
		}
	}
	// Regular heartbeats leave no gap.
	if g := gapsOf([]sendRec{{stamp: 0}, {stamp: eta}, {stamp: 2 * eta}}, eta, timeout, eta); len(g) != 0 {
		t.Fatalf("regular sender has gaps %+v", g)
	}
	sus := func(at time.Duration) event { return event{at: at, suspected: true} }
	tru := func(at time.Duration) event { return event{at: at} }

	type want struct{ detect, trust verdict }
	for _, c := range []struct {
		name  string
		evs   []event
		want  [3]want
		stray int
	}{
		{"clean", []event{sus(501 * ms), tru(801 * ms), sus(1301 * ms), tru(1601 * ms), sus(2101 * ms)},
			[3]want{}, 0},
		{"missed", []event{sus(501 * ms), tru(801 * ms), sus(2101 * ms)},
			[3]want{1: {cycleMissed, cycleOK}}, 0},
		{"late", []event{sus(500*ms + detectWindow + 1), tru(801 * ms), sus(1301 * ms), tru(1601 * ms), sus(2101 * ms)},
			[3]want{0: {cycleLate, cycleOK}}, 0},
		{"early", []event{sus(501 * ms), tru(801 * ms), sus(1299 * ms), tru(1601 * ms), sus(2101 * ms)},
			[3]want{1: {cycleEarly, cycleOK}}, 1},
		{"duplicate", []event{sus(501 * ms), sus(600 * ms), tru(801 * ms), sus(1301 * ms), tru(1601 * ms), sus(2101 * ms)},
			[3]want{0: {cycleDuplicate, cycleOK}}, 0},
		{"missing trust", []event{sus(501 * ms), sus(1301 * ms), tru(1601 * ms), sus(2101 * ms)},
			[3]want{0: {cycleOK, cycleNoTrust}, 1: {cycleOK, cycleOK}}, 0},
		{"late trust", []event{sus(501 * ms), tru(801*ms + eta), sus(1301 * ms), tru(1601 * ms), sus(2101 * ms)},
			[3]want{0: {cycleOK, cycleLateTrust}}, 0},
	} {
		outs, stray := classifyPeer(gaps, c.evs, eta, eta+timeout)
		for i, o := range outs {
			if o.detect != c.want[i].detect || o.trust != c.want[i].trust {
				t.Errorf("%s: gap %d: detect %s trust %s, want %s %s", c.name, i,
					verdictNames[o.detect], verdictNames[o.trust],
					verdictNames[c.want[i].detect], verdictNames[c.want[i].trust])
			}
		}
		if len(stray) != c.stray {
			t.Errorf("%s: %d stray transitions, want %d", c.name, len(stray), c.stray)
		}
	}
	// The measured figures are callback time minus tau and minus the send.
	outs, _ := classifyPeer(gaps, []event{sus(501 * ms), tru(801 * ms)}, eta, eta+timeout)
	if outs[0].detectLag != ms || outs[0].trustLatency != ms-300*time.Microsecond {
		t.Errorf("detectLag %v trustLatency %v", outs[0].detectLag, outs[0].trustLatency)
	}
	// A peer that never pauses must never be suspected: both transitions
	// of a false suspicion are stray.
	if _, stray := classifyPeer(nil, []event{sus(700 * ms), tru(750 * ms)}, eta, eta+timeout); len(stray) != 2 {
		t.Errorf("false suspicion: %d stray, want 2", len(stray))
	}
	// A rack member suspected while it is sending on time: stray, not early.
	rack := []gap{{tau: 2000 * ms, resume: 2700 * ms}}
	if outs, stray := classifyPeer(rack, []event{sus(900 * ms), tru(950 * ms)}, eta, eta+timeout); len(stray) != 2 || outs[0].detect != cycleMissed {
		t.Errorf("rack false suspicion: stray %d detect %s", len(stray), verdictNames[outs[0].detect])
	}
}

func TestCompareVerdicts(t *testing.T) {
	def := metricDef{name: "latency", unit: "us", bound: 0.10} // lower is better
	// A single run whose segments read lo, v, v and hi.
	one := func(v, lo, hi float64) sample {
		return sample{values: []float64{v}, segments: []float64{lo, v, v, hi}}
	}
	for _, c := range []struct {
		name string
		a, b sample
		want string
	}{
		{"same", one(100, 98, 102), one(101, 99, 103), "ok"},
		{"worse", one(100, 98, 102), one(115, 113, 117), "worse"},
		{"better", one(100, 98, 102), one(80, 79, 81), "ok"},
		{"too noisy to say", one(100, 80, 120), one(104, 100, 108), "unresolved"},
		{"noisy but every run better", sample{values: []float64{100, 130, 90, 120}}, sample{values: []float64{60, 70, 65, 62}}, "ok"},
		{"ten steady runs, worse", sample{values: []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}},
			sample{values: []float64{112, 111, 113, 112, 110, 114, 112, 111, 113, 112}}, "worse"},
	} {
		if _, got := judge(def, c.a, c.b); got != c.want {
			t.Errorf("%s: %s, want %s", c.name, got, c.want)
		}
	}
	up := metricDef{name: "rate", unit: "1/s", higher: true, bound: 0.10}
	if _, got := judge(up, one(100, 99, 101), one(85, 84, 86)); got != "worse" {
		t.Errorf("throughput down 15%%: %s, want worse", got)
	}
	if _, got := judge(up, one(100, 99, 101), one(120, 119, 121)); got != "ok" {
		t.Errorf("throughput up: %s, want ok", got)
	}

	res := func(w string, v float64, failed int64) *result {
		return &result{Workload: w, Attempted: 100, Failed: failed,
			EndToEnd: metricSet{"trust_latency_us_p02": {Value: v, Min: v, Max: v}}}
	}
	a := &report{Results: []*result{res("fleet_steady", 100, 0)}}
	if code := compareReports(a, &report{Results: []*result{res("fleet_steady", 105, 0)}}); code != 0 {
		t.Errorf("within bound: exit %d", code)
	}
	if code := compareReports(a, &report{Results: []*result{res("fleet_steady", 140, 0)}}); code != 1 {
		t.Errorf("beyond bound: exit %d", code)
	}
	if code := compareReports(a, &report{Results: []*result{res("fleet_steady", 100, 3)}}); code != 1 {
		t.Errorf("more failures: exit %d", code)
	}
}

func TestCheckSpans(t *testing.T) {
	good := []span{
		{ID: 1, Op: 1, Start: 0, End: 100},
		{ID: 2, Op: 1, Parent: 1, Start: 10, End: 40},
		{ID: 3, Op: 1, Parent: 2, Start: 15, End: 25},
		{ID: 4, Op: 1, Parent: 1, Start: 40, End: 90},
	}
	self, err := checkSpans(good)
	if err != nil {
		t.Fatal(err)
	}
	if want := []int64{20, 20, 10, 50}; self[0] != want[0] || self[1] != want[1] || self[2] != want[2] || self[3] != want[3] {
		t.Errorf("self = %v, want %v", self, want)
	}
	for name, mutate := range map[string]func([]span){
		"child ends after parent": func(s []span) { s[3].End = 101 },
		"siblings overlap":        func(s []span) { s[3].Start = 39 },
		"unknown parent":          func(s []span) { s[2].Parent = 9 },
		"another operation":       func(s []span) { s[2].Op = 2 },
		"ends before it starts":   func(s []span) { s[0].End = -1 },
	} {
		bad := append([]span(nil), good...)
		mutate(bad)
		if _, err := checkSpans(bad); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// TestSmokeFleetSteady runs a small fleet_steady end to end through the
// real socket: 1,024 peers for two seconds (enough probe cycles for the
// second percentile), and not one failed operation.
func TestSmokeFleetSteady(t *testing.T) {
	if !socketSupported {
		t.Skip("socket workloads are unsupported here")
	}
	res, err := runFleet(workloads[0], runConfig{seed: 1, seconds: 2, warmup: 400 * time.Millisecond, peers: 1024})
	if err != nil {
		t.Fatal(err)
	}
	if res.Failed != 0 {
		t.Errorf("%d of %d operations failed: %v %v", res.Failed, res.Attempted, res.Failures, res.Notes)
	}
	if res.Attempted < 300 {
		t.Errorf("only %d operations attempted", res.Attempted)
	}
	for _, name := range []string{"setup_s", "heap_bytes_per_peer", "monitor_cpu_us_per_hb", "trust_latency_us_p02", "storm_clear_ms"} {
		if m, ok := res.EndToEnd[name]; !ok || !(m.Value > 0) {
			t.Errorf("%s = %+v, want a positive value", name, m)
		}
	}
}

// TestBenchmarkJSONAgrees keeps BENCHMARK.json and the program's own tables
// saying the same thing: the socket workloads with their reasons, and the
// socket end-to-end metrics with unit, direction and bound.
func TestBenchmarkJSONAgrees(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("no BENCHMARK.json beside bench/")
	}
	var spec struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	var fleets []workload
	for _, w := range workloads {
		if w.fleet != nil {
			fleets = append(fleets, w)
		}
	}
	if len(spec.Workloads) != len(fleets) {
		t.Fatalf("%d workloads listed, the program has %d socket workloads", len(spec.Workloads), len(fleets))
	}
	for i, w := range spec.Workloads {
		if w.Name != fleets[i].name || w.Why != fleets[i].why {
			t.Errorf("workload %d: %q %q, program says %q %q", i, w.Name, w.Why, fleets[i].name, fleets[i].why)
		}
	}
	listed := map[string]bool{}
	for _, m := range spec.EndToEnd {
		listed[m.Name] = true
		def, ok := findMetric(m.Name)
		if !ok {
			t.Errorf("%s is listed but the program does not report it", m.Name)
			continue
		}
		better := "lower"
		if def.higher {
			better = "higher"
		}
		if m.Unit != def.unit || m.Better != better || m.Bound != def.bound {
			t.Errorf("%s: listed %s %s %v, program says %s %s %v", m.Name, m.Unit, m.Better, m.Bound, def.unit, better, def.bound)
		}
	}
	for _, def := range endToEnd {
		if !listed[def.name] && !def.simOnly {
			t.Errorf("%s is reported by the socket workloads but not listed", def.name)
		}
	}
}
