package telemetry

import (
	"fmt"
	"math"
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
	r.DetectorMetrics("p").Transition(true, 0)
	r.Collect(func(*Scrape) { t.Error("a nil registry ran a collector") })
	r.CollectPeers(func() []PeerSample { t.Error("a nil registry ran a collector"); return nil })
	r.DetectorFuncs("p", nil, nil, nil)
	if err := r.WritePrometheus(&strings.Builder{}); err != nil {
		t.Fatal(err)
	}
	if got := r.Events().Events(); got != nil {
		t.Errorf("nil ring events = %v, want nil", got)
	}
	m := r.DetectorMetrics("p")
	m.OpenQoS(0)
	if _, ok := m.Window(); ok {
		t.Error("nil bundle reports an open window")
	}
	p := PeerSample{PA: 0.5}
	m.Sample(&p)
	if p != (PeerSample{PA: 0.5}) {
		t.Errorf("nil bundle wrote its sample: %+v", p)
	}

	var c *Counter
	c.Inc()
	c.Add(3)
	if c.Value() != 0 {
		t.Error("nil counter must read 0")
	}
	var g *Gauge
	g.Set(4)
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
	g.Set(1.5)
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

// TestCollectorRunsOncePerScrape registers a collector writing several
// families, around live handles: each scrape runs it exactly once, reads
// its values afresh, writes its families in their declared places — a
// histogram Desc holding its live histogram's — and leaves out a declared
// family it wrote nothing into.
func TestCollectorRunsOncePerScrape(t *testing.T) {
	r := NewRegistry(0)
	r.Counter("wanfd_first_total", "First.").Inc()
	var runs, hb uint64 = 0, 41
	suspected := false
	r.Collect(func(s *Scrape) {
		runs++
		s.Counter(0, hb, "peer", "a")
		s.Counter(0, hb+1, "peer", "b")
		// 1 is the live histogram; 2 stays empty.
		s.Gauge(3, boolValue(suspected), "peer", "a")
	},
		Desc{"wanfd_hb_total", "Heartbeats.", TypeCounter},
		Desc{"wanfd_delay_seconds", "Delay.", TypeHistogram},
		Desc{"wanfd_empty", "Never written.", TypeGauge},
		Desc{"wanfd_peer_suspected", "Output.", TypeGauge},
	)
	r.Histogram("wanfd_delay_seconds", "", []float64{1}).Observe(0.5)

	render := func() string {
		t.Helper()
		var b strings.Builder
		if err := r.WritePrometheus(&b); err != nil {
			t.Fatal(err)
		}
		return b.String()
	}
	const want = `# HELP wanfd_first_total First.
# TYPE wanfd_first_total counter
wanfd_first_total 1
# HELP wanfd_hb_total Heartbeats.
# TYPE wanfd_hb_total counter
wanfd_hb_total{peer="a"} 41
wanfd_hb_total{peer="b"} 42
# HELP wanfd_delay_seconds Delay.
# TYPE wanfd_delay_seconds histogram
wanfd_delay_seconds_bucket{le="1"} 1
wanfd_delay_seconds_bucket{le="+Inf"} 1
wanfd_delay_seconds_sum 0.5
wanfd_delay_seconds_count 1
# HELP wanfd_peer_suspected Output.
# TYPE wanfd_peer_suspected gauge
wanfd_peer_suspected{peer="a"} 0
`
	if out := render(); out != want {
		t.Errorf("exposition:\n%s\nwant:\n%s", out, want)
	}
	if runs != 1 {
		t.Errorf("one scrape ran the collector %d times, want 1", runs)
	}

	// The collector reads its values afresh at every scrape.
	hb, suspected = 42, true
	out := render()
	if !strings.Contains(out, `wanfd_hb_total{peer="a"} 42`) ||
		!strings.Contains(out, `wanfd_peer_suspected{peer="a"} 1`) {
		t.Errorf("second scrape stale:\n%s", out)
	}
	if runs != 2 {
		t.Errorf("two scrapes ran the collector %d times, want 2", runs)
	}
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

func TestConcurrentObserve(t *testing.T) {
	r := NewRegistry(0)
	c := r.Counter("wanfd_c_total", "h")
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
				h.Observe(1.5)
			}
		}()
	}
	wg.Wait()
	if c.Value() != workers*perW {
		t.Errorf("counter = %d, want %d", c.Value(), workers*perW)
	}
	if h.Count() != workers*perW {
		t.Errorf("histogram count = %d, want %d", h.Count(), workers*perW)
	}
	if got, want := h.Sum(), 1.5*workers*perW; math.Abs(got-want) > 1e-6 {
		t.Errorf("histogram sum = %v, want %v", got, want)
	}
}

// TestScrapeDuringCollectorRegistration scrapes in a loop while 2,000
// collectors are registered: every sample a scrape shows is its
// collector's, and the last scrape shows them all. Under -race it also
// checks that a scrape reads the collector list only as registration
// published it.
func TestScrapeDuringCollectorRegistration(t *testing.T) {
	r := NewRegistry(0)
	desc := Desc{"added_total", "h", TypeCounter}
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(done)
		for i := 0; i < 2000; i++ {
			label := fmt.Sprint(i)
			r.Collect(func(s *Scrape) { s.Counter(0, 1, "i", label) }, desc)
		}
	}()
	var b strings.Builder
	for scraping := true; scraping; {
		select {
		case <-done:
			scraping = false // one last scrape sees every collector
		default:
		}
		b.Reset()
		if err := r.WritePrometheus(&b); err != nil {
			t.Fatal(err)
		}
		for _, line := range strings.Split(b.String(), "\n") {
			if strings.HasPrefix(line, "added_total{") && !strings.HasSuffix(line, "} 1") {
				t.Fatalf("a sample that is not its collector's: %q", line)
			}
		}
	}
	wg.Wait()
	if n := strings.Count(b.String(), "\nadded_total{"); n != 2000 {
		t.Errorf("last scrape shows %d of 2000 collectors' samples", n)
	}
}
