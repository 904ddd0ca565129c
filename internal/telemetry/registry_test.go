package telemetry

import (
	"fmt"
	"math"
	"runtime"
	"strings"
	"sync"
	"testing"
)

func TestNilSafety(t *testing.T) {
	// Every handle and the registry itself must be usable as nil.
	var r *Registry
	r.Counter("x", "h").Inc()
	r.Gauge("x", "h").Set(1)
	r.Histogram("x", "h", nil).Observe(1)
	r.RecordTransition("p", true, 0)
	r.DropSeries("peer", "p")
	if err := r.WritePrometheus(&strings.Builder{}); err != nil {
		t.Fatal(err)
	}
	if got := r.Events().Events(); got != nil {
		t.Errorf("nil ring events = %v, want nil", got)
	}
	r.OpenQoS("p", 0)
	r.CloseQoS("p")
	if _, ok := r.QoS("p"); ok {
		t.Error("nil registry reports an accountant")
	}

	var c *Counter
	c.Inc()
	c.Add(3)
	if c.Value() != 0 {
		t.Error("nil counter must read 0")
	}
	var g *Gauge
	g.Set(4)
	g.Add(1)
	if g.Value() != 0 {
		t.Error("nil gauge must read 0")
	}
	var h *Histogram
	h.Observe(1)
	if h.Count() != 0 || h.Sum() != 0 {
		t.Error("nil histogram must read 0")
	}
}

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry(0)
	c := r.Counter("wanfd_test_total", "help", "peer", "a")
	c.Inc()
	c.Add(4)
	if c.Value() != 5 {
		t.Fatalf("counter = %d, want 5", c.Value())
	}
	if again := r.Counter("wanfd_test_total", "help", "peer", "a"); again != c {
		t.Error("same name+labels must return the same handle")
	}
	if other := r.Counter("wanfd_test_total", "help", "peer", "b"); other == c {
		t.Error("different labels must return a different handle")
	}

	g := r.Gauge("wanfd_test_gauge", "help")
	g.Set(2.5)
	g.Add(-1)
	if g.Value() != 1.5 {
		t.Fatalf("gauge = %v, want 1.5", g.Value())
	}
}

func TestHistogramObserve(t *testing.T) {
	r := NewRegistry(0)
	h := r.Histogram("wanfd_test_seconds", "help", []float64{0.1, 1, 10})
	for _, v := range []float64{0.05, 0.1, 0.5, 5, 100} {
		h.Observe(v)
	}
	if h.Count() != 5 {
		t.Fatalf("count = %d, want 5", h.Count())
	}
	if got, want := h.Sum(), 105.65; math.Abs(got-want) > 1e-9 {
		t.Fatalf("sum = %v, want %v", got, want)
	}
	// Buckets: ≤0.1 holds 0.05 and 0.1 (inclusive upper edge), ≤1 holds
	// 0.5, ≤10 holds 5, +Inf holds 100.
	want := []uint64{2, 1, 1, 1}
	for i, w := range want {
		if got := h.counts[i].Load(); got != w {
			t.Errorf("bucket %d = %d, want %d", i, got, w)
		}
	}
}

func TestBatchObserver(t *testing.T) {
	r := NewRegistry(0)
	h := r.Histogram("wanfd_test_batch_seconds", "help", []float64{0.1, 1})
	b := h.Batch()

	// Nothing reaches the shared histogram until the 8th observation.
	for i := 0; i < batchFlushEvery-1; i++ {
		b.Observe(0.05)
	}
	if h.Count() != 0 {
		t.Fatalf("count before flush = %d, want 0", h.Count())
	}
	b.Observe(5) // 8th: triggers the flush
	if h.Count() != batchFlushEvery {
		t.Fatalf("count after flush = %d, want %d", h.Count(), batchFlushEvery)
	}
	if got, want := h.Sum(), 0.05*float64(batchFlushEvery-1)+5; math.Abs(got-want) > 1e-9 {
		t.Fatalf("sum after flush = %v, want %v", got, want)
	}
	if got := h.counts[0].Load(); got != batchFlushEvery-1 {
		t.Errorf("bucket 0 = %d, want %d", got, batchFlushEvery-1)
	}
	if got := h.counts[2].Load(); got != 1 {
		t.Errorf("+Inf bucket = %d, want 1", got)
	}

	// Flush pushes a partial tail; a second Flush with nothing pending
	// is a no-op.
	b.Observe(0.5)
	b.Flush()
	if h.Count() != batchFlushEvery+1 {
		t.Fatalf("count after tail flush = %d, want %d", h.Count(), batchFlushEvery+1)
	}
	b.Flush()
	if h.Count() != batchFlushEvery+1 {
		t.Fatalf("empty flush changed count to %d", h.Count())
	}

	// Nil receivers are no-ops end to end.
	var nilH *Histogram
	nb := nilH.Batch()
	if nb != nil {
		t.Fatalf("nil histogram Batch = %v, want nil", nb)
	}
	nb.Observe(1)
	nb.Flush()
}

func TestFuncSeries(t *testing.T) {
	r := NewRegistry(0)
	var hb uint64 = 41
	suspected := false
	r.CounterFunc("wanfd_hb_total", "Heartbeats.", func() float64 { return float64(hb) }, "peer", "a")
	r.GaugeFunc("wanfd_peer_suspected", "Output.", func() float64 {
		if suspected {
			return 1
		}
		return 0
	}, "peer", "a")

	render := func() string {
		var b strings.Builder
		if err := r.WritePrometheus(&b); err != nil {
			t.Fatal(err)
		}
		return b.String()
	}
	out := render()
	if !strings.Contains(out, `wanfd_hb_total{peer="a"} 41`) {
		t.Errorf("counter func not sampled:\n%s", out)
	}
	if !strings.Contains(out, `wanfd_peer_suspected{peer="a"} 0`) {
		t.Errorf("gauge func not sampled:\n%s", out)
	}

	// The callback is re-evaluated on every scrape.
	hb, suspected = 42, true
	out = render()
	if !strings.Contains(out, `wanfd_hb_total{peer="a"} 42`) ||
		!strings.Contains(out, `wanfd_peer_suspected{peer="a"} 1`) {
		t.Errorf("second scrape stale:\n%s", out)
	}

	// DropSeries retires func series like any other.
	r.DropSeries("peer", "a")
	if out := render(); strings.Contains(out, `peer="a"`) {
		t.Errorf("dropped func series still exported:\n%s", out)
	}

	// Nil registry and nil funcs are no-ops.
	var nilReg *Registry
	nilReg.CounterFunc("x", "h", func() float64 { return 1 })
	nilReg.GaugeFunc("x", "h", func() float64 { return 1 })
	r.CounterFunc("wanfd_other_total", "h", nil)
}

func TestDetectorFuncs(t *testing.T) {
	r := NewRegistry(0)
	r.DetectorFuncs("db",
		func() (uint64, uint64, uint64) { return 100, 3, 2 },
		func() float64 { return 0.25 },
		func() bool { return true },
	)
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		MetricHeartbeats + `{peer="db"} 100`,
		MetricHeartbeatsStale + `{peer="db"} 3`,
		MetricFreshnessMisses + `{peer="db"} 2`,
		MetricDetectorTimeout + `{peer="db"} 0.25`,
		MetricPeerSuspected + `{peer="db"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q in:\n%s", want, out)
		}
	}
}

func TestWritePrometheusFormat(t *testing.T) {
	r := NewRegistry(0)
	r.Counter("wanfd_hb_total", "Heartbeats.", "peer", "a").Add(7)
	r.Counter("wanfd_hb_total", "Heartbeats.", "peer", `we"ird\n`).Inc()
	r.Gauge("wanfd_pa", "Accuracy.", "peer", "a").Set(0.75)
	r.Histogram("wanfd_delay_seconds", "Delay.", []float64{0.5, 1}, "peer", "a").Observe(0.2)

	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# HELP wanfd_hb_total Heartbeats.\n",
		"# TYPE wanfd_hb_total counter\n",
		`wanfd_hb_total{peer="a"} 7` + "\n",
		`wanfd_hb_total{peer="we\"ird\\n"} 1` + "\n",
		"# TYPE wanfd_pa gauge\n",
		`wanfd_pa{peer="a"} 0.75` + "\n",
		"# TYPE wanfd_delay_seconds histogram\n",
		`wanfd_delay_seconds_bucket{peer="a",le="0.5"} 1` + "\n",
		`wanfd_delay_seconds_bucket{peer="a",le="1"} 1` + "\n",
		`wanfd_delay_seconds_bucket{peer="a",le="+Inf"} 1` + "\n",
		`wanfd_delay_seconds_sum{peer="a"} 0.2` + "\n",
		`wanfd_delay_seconds_count{peer="a"} 1` + "\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q in:\n%s", want, out)
		}
	}
}

func TestDropSeries(t *testing.T) {
	r := NewRegistry(0)
	r.Counter("wanfd_hb_total", "h", "peer", "a").Inc()
	r.Counter("wanfd_hb_total", "h", "peer", "b").Inc()
	r.Gauge("wanfd_pa", "h", "peer", "a").Set(1)
	r.DropSeries("peer", "a")

	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if strings.Contains(out, `peer="a"`) {
		t.Errorf("dropped series still exported:\n%s", out)
	}
	if !strings.Contains(out, `wanfd_hb_total{peer="b"} 1`) {
		t.Errorf("unrelated series lost:\n%s", out)
	}
	// Re-creating a dropped series starts from zero.
	if v := r.Counter("wanfd_hb_total", "h", "peer", "a").Value(); v != 0 {
		t.Errorf("recreated counter = %d, want 0", v)
	}
}

// registerPeer gives one peer the series a live monitor registers for it.
func registerPeer(r *Registry, peer string) {
	r.DetectorMetrics(peer)
	r.DetectorFuncs(peer,
		func() (uint64, uint64, uint64) { return 5, 1, 0 },
		func() float64 { return 0.25 },
		func() bool { return false })
	r.OpenQoS(peer, 0)
}

// TestDropSeriesTouchesOnlyItsPeer drops one peer of many, some series of
// which carry a second label pair: the exposition afterwards is exactly the
// one before with that peer's lines taken out, and dropping by the second
// pair, and re-adding the peer, keep the label index consistent.
func TestDropSeriesTouchesOnlyItsPeer(t *testing.T) {
	r := NewRegistry(0)
	r.Counter("wanfd_up_total", "h").Inc()
	for i := 0; i < 10; i++ {
		peer := fmt.Sprintf("p%d", i)
		registerPeer(r, peer)
		r.Counter("wanfd_zone_total", "h", "peer", peer, "zone", fmt.Sprint(i%2)).Add(uint64(i))
	}
	scrape := func() string {
		t.Helper()
		var b strings.Builder
		if err := r.WritePrometheus(&b); err != nil {
			t.Fatal(err)
		}
		return b.String()
	}
	without := func(out, label string) string {
		var kept []string
		for _, line := range strings.SplitAfter(out, "\n") {
			if !strings.Contains(line, label) {
				kept = append(kept, line)
			}
		}
		return strings.Join(kept, "")
	}
	before := scrape()
	if !strings.Contains(before, `peer="p3"`) {
		t.Fatalf("p3 has no series to drop:\n%s", before)
	}
	r.DropSeries("peer", "p3")
	if got, want := scrape(), without(before, `peer="p3"`); got != want {
		t.Errorf("after dropping p3:\n%s\nwant:\n%s", got, want)
	}
	before = scrape()
	r.DropSeries("zone", "1")
	if got, want := scrape(), without(before, `zone="1"`); got != want {
		t.Errorf("after dropping zone 1:\n%s\nwant:\n%s", got, want)
	}
	// p5's zone series went with zone 1; dropping p5 must take the rest and
	// nothing else.
	before = scrape()
	r.DropSeries("peer", "p5")
	if got, want := scrape(), without(before, `peer="p5"`); got != want {
		t.Errorf("after dropping p5:\n%s\nwant:\n%s", got, want)
	}
	// A re-added peer starts fresh and drops again.
	registerPeer(r, "p3")
	if out := scrape(); !strings.Contains(out, MetricHeartbeats+`{peer="p3"} 5`) ||
		!strings.Contains(out, MetricQoSPA+`{peer="p3"} 1`) {
		t.Errorf("re-added p3 not exported:\n%s", out)
	}
	before = scrape()
	r.DropSeries("peer", "p3")
	if got, want := scrape(), without(before, `peer="p3"`); got != want {
		t.Errorf("after dropping the re-added p3:\n%s\nwant:\n%s", got, want)
	}
	r.mu.RLock()
	defer r.mu.RUnlock()
	for pair, list := range r.byLabel {
		for _, s := range list {
			if s.fam.index[s.key] != s {
				t.Errorf("label index lists a dropped series %q under %q", s.key, pair)
			}
		}
	}
}

// BenchmarkDropSeries times one peer's removal from the registry of a
// monitor with every peer's series and QoS window registered: DropSeries
// plus CloseQoS, as RemovePeer calls them. The cost must not grow with the
// fleet. The 65,536-peer set-up is skipped under -short.
func BenchmarkDropSeries(b *testing.B) {
	for _, peers := range []int{4096, 65536} {
		b.Run(fmt.Sprint(peers), func(b *testing.B) {
			if peers > 4096 && testing.Short() {
				b.Skip("large set-up under -short")
			}
			r := NewRegistry(0)
			names := make([]string, peers)
			for i := range names {
				names[i] = fmt.Sprintf("peer-%d", i)
				registerPeer(r, names[i])
			}
			// Collect the set-up's garbage now, not in the timed loop.
			runtime.GC()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				k := i % peers
				if i > 0 && k == 0 {
					// Every peer is gone: register the fleet again.
					b.StopTimer()
					for _, name := range names {
						registerPeer(r, name)
					}
					runtime.GC()
					b.StartTimer()
				}
				r.DropSeries("peer", names[k])
				r.CloseQoS(names[k])
			}
		})
	}
}

func TestConcurrentObserve(t *testing.T) {
	r := NewRegistry(0)
	c := r.Counter("wanfd_c_total", "h")
	g := r.Gauge("wanfd_g", "h")
	h := r.Histogram("wanfd_h_seconds", "h", []float64{1, 2})
	const (
		workers = 8
		perW    = 1000
	)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perW; i++ {
				c.Inc()
				g.Add(1)
				h.Observe(1.5)
			}
		}()
	}
	wg.Wait()
	if c.Value() != workers*perW {
		t.Errorf("counter = %d, want %d", c.Value(), workers*perW)
	}
	if g.Value() != workers*perW {
		t.Errorf("gauge = %v, want %d", g.Value(), workers*perW)
	}
	if h.Count() != workers*perW {
		t.Errorf("histogram count = %d, want %d", h.Count(), workers*perW)
	}
	if got, want := h.Sum(), 1.5*workers*perW; math.Abs(got-want) > 1e-6 {
		t.Errorf("histogram sum = %v, want %v", got, want)
	}
}
