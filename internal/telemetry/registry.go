// Package telemetry is the live observability subsystem: an
// allocation-free metrics registry (atomic counters, gauges and
// fixed-bucket histograms), a bounded suspicion-event ring reusing the
// nekostat event kinds, and one nekostat.Accountant per peer that turns
// suspicion transitions into running T_M / T_MR / P_A by the same rules as
// the post-hoc nekostat.ComputeQoS.
//
// Everything is nil-safe: every method on a nil *Registry, *Counter,
// *Gauge or *Histogram is a no-op (or returns a zero value), so
// instrumented hot paths cost a single predictable branch when telemetry
// is disabled. Handle creation (Counter, Gauge, Histogram lookups) takes a
// registry lock and is meant for construction time — per-peer handles are
// created once when the peer joins, never per observation.
package telemetry

import (
	"errors"
	"fmt"
	"io"
	"math"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"wanfd/internal/nekostat"
)

// Counter is a monotonically increasing atomic counter. The nil counter is
// a valid no-op.
//
//fdlint:nilsafe
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() {
	if c != nil {
		c.v.Add(1)
	}
}

// Add adds n.
func (c *Counter) Add(n uint64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Value returns the current count (0 on a nil counter).
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an atomically settable float64. The nil gauge is a valid no-op.
//
//fdlint:nilsafe
type Gauge struct {
	bits atomic.Uint64
}

// Set stores v.
func (g *Gauge) Set(v float64) {
	if g != nil {
		g.bits.Store(math.Float64bits(v))
	}
}

// Value returns the current value (0 on a nil gauge).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// histSumScale fixes the resolution of the histogram sum: observations are
// accumulated as integers of v*histSumScale, so Observe is a plain atomic
// add instead of a compare-and-swap loop on float bits. At 1e-9 resolution
// the sum is exact to the nanosecond for second-denominated observations
// and saturates the int64 only past ~9.2e9 accumulated seconds.
const histSumScale = 1e9

// Histogram is a fixed-bucket histogram with a lock-free Observe. Bucket
// bounds are inclusive upper edges in ascending order; an implicit +Inf
// bucket catches the rest. The total count is derived from the buckets at
// read time, so the hot path is exactly two atomic adds. The nil histogram
// is a valid no-op.
//
//fdlint:nilsafe
type Histogram struct {
	bounds []float64
	counts []atomic.Uint64 // len(bounds)+1; last is +Inf
	sum    atomic.Int64    // scaled by histSumScale
}

// Observe records one observation. It is lock-free: a linear scan over the
// (small, fixed) bucket bounds plus two atomic adds. The body is small
// enough to inline at the call site; only the bucket scan is an outlined
// call.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	h.counts[h.bucket(v)].Add(1)
	h.sum.Add(int64(v * histSumScale))
}

// bucket finds the index of the first bucket whose inclusive upper edge
// admits v (the +Inf bucket otherwise).
func (h *Histogram) bucket(v float64) int {
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	return i
}

// batchFlushEvery is how many observations a BatchObserver buffers before
// pushing them to the shared histogram. Small enough that a scrape lags a
// busy peer by well under one scrape interval, large enough to amortize
// the atomic adds to a fraction of an op.
const batchFlushEvery = 8

// BatchObserver buffers observations for one producer and flushes them to
// a shared Histogram every batchFlushEvery-th observation. The buffer is
// plain (non-atomic) state: the caller must serialize Observe/Flush calls,
// which the detector gets for free from its own mutex. This turns the
// per-observation cost from two atomic adds into two plain adds, at the
// price of the histogram lagging each producer by at most
// batchFlushEvery-1 observations. The nil BatchObserver is a valid no-op.
//
//fdlint:nilsafe
type BatchObserver struct {
	h       *Histogram
	bounds  []float64 // h.bounds, cached so Observe scans without a call
	sum     float64
	pending uint32
	counts  []uint32 // same layout as h.counts
}

// Batch returns a new private buffer draining into h (nil on a nil
// histogram).
func (h *Histogram) Batch() *BatchObserver {
	if h == nil {
		return nil
	}
	return &BatchObserver{h: h, bounds: h.bounds, counts: make([]uint32, len(h.counts))}
}

// Observe buffers one observation, flushing to the shared histogram on
// every batchFlushEvery-th call. Not safe for concurrent use.
func (b *BatchObserver) Observe(v float64) {
	if b == nil {
		return
	}
	i, bounds := 0, b.bounds
	for i < len(bounds) && v > bounds[i] {
		i++
	}
	b.counts[i]++
	b.sum += v
	b.pending++
	if b.pending >= batchFlushEvery {
		b.flush()
	}
}

// Flush pushes any buffered observations to the shared histogram. Call it
// when the producer retires so the tail of the stream is not lost.
func (b *BatchObserver) Flush() {
	if b == nil || b.pending == 0 {
		return
	}
	b.flush()
}

func (b *BatchObserver) flush() {
	for i := range b.counts {
		if c := b.counts[i]; c != 0 {
			b.h.counts[i].Add(uint64(c))
			b.counts[i] = 0
		}
	}
	b.h.sum.Add(int64(b.sum * histSumScale))
	b.sum = 0
	b.pending = 0
}

// Count returns the total number of observations (0 on nil). The per-bucket
// loads are not a consistent snapshot; a concurrent Observe may or may not
// be included, which scrapes tolerate by design.
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	var n uint64
	for i := range h.counts {
		n += h.counts[i].Load()
	}
	return n
}

// Sum returns the sum of all observations (0 on nil), exact to the
// histSumScale resolution.
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return float64(h.sum.Load()) / histSumScale
}

// DefDelayBuckets are the default bucket bounds (seconds) for heartbeat
// delay and predictor-error histograms: sub-millisecond LAN floors through
// multi-second WAN outliers.
var DefDelayBuckets = []float64{
	0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5,
}

// metricType is the Prometheus exposition type of a metric family.
type metricType string

const (
	typeCounter   metricType = "counter"
	typeGauge     metricType = "gauge"
	typeHistogram metricType = "histogram"
)

// series is one labeled instance of a metric family. Exactly one of the
// value sources is set, guarded by Registry.mu: a live handle (c/g/h)
// updated by instrumented code, or fn, a callback sampled at scrape time
// for values some other component already maintains (the collector
// pattern — zero hot-path cost).
type series struct {
	labels []string // flattened k,v pairs, as passed in
	key    string   // canonical label signature
	fam    *family
	c      *Counter
	g      *Gauge
	h      *Histogram
	fn     func() float64
}

// family is one named metric with its labeled series.
type family struct {
	name   string
	help   string
	typ    metricType
	bounds []float64 // histogram families only
	// index holds the family's series by label signature; the exposition
	// writes them sorted by it.
	index map[string]*series
}

// Registry is the telemetry hub: the metric families plus the suspicion
// event ring and the open per-peer accuracy windows by name, so one handle
// wires a whole monitor. It serves one monitor for its lifetime (Claim).
// Every series is inserted together with its value source under one lock,
// so a scrape sees it whole or not at all. The zero value is not usable; construct with
// NewRegistry. A nil *Registry is valid everywhere and disables telemetry.
//
//fdlint:nilsafe
type Registry struct {
	claimed  atomic.Bool
	mu       sync.RWMutex
	families []*family // registration order
	index    map[string]*family
	// byLabel lists the series carrying each label pair, keyed by the
	// pair's label signature, so DropSeries touches only its own series.
	byLabel map[string][]*series

	events *EventRing
	// qosMu guards qos, the open accuracy windows by peer name: touched
	// by DetectorMetrics.OpenQoS, CloseQoS and QoS, never by a transition.
	qosMu sync.Mutex
	qos   map[string]*DetectorMetrics
}

// NewRegistry returns an empty registry with a suspicion-event ring of the
// given capacity (eventCap <= 0 selects the default of 512 events).
func NewRegistry(eventCap int) *Registry {
	if eventCap <= 0 {
		eventCap = 512
	}
	return &Registry{
		index:   make(map[string]*family),
		byLabel: make(map[string][]*series),
		events:  NewEventRing(eventCap),
		qos:     make(map[string]*DetectorMetrics),
	}
}

// Claim binds the registry to the one monitor it serves: the first call
// succeeds, every later one fails. A nil registry is never claimed.
func (r *Registry) Claim() error {
	if r == nil || r.claimed.CompareAndSwap(false, true) {
		return nil
	}
	return errors.New("telemetry: registry already serves a monitor; each monitor needs its own registry")
}

// Events returns the suspicion-event ring (nil on a nil registry).
func (r *Registry) Events() *EventRing {
	if r == nil {
		return nil
	}
	return r.events
}

// CloseQoS closes peer's accuracy window (on membership removal): its
// bundle's later transitions reach only the event ring, and a re-added
// name opens a fresh window. No-op on a nil registry.
func (r *Registry) CloseQoS(peer string) {
	if r == nil {
		return
	}
	r.qosMu.Lock()
	defer r.qosMu.Unlock()
	if m := r.qos[peer]; m != nil {
		m.win.mu.Lock()
		m.win.open = false
		m.win.mu.Unlock()
		delete(r.qos, peer)
	}
}

// QoS returns a copy of peer's accountant; ok is false when no window is
// open for it (or on a nil registry).
func (r *Registry) QoS(peer string) (a nekostat.Accountant, ok bool) {
	if r == nil {
		return a, false
	}
	r.qosMu.Lock()
	defer r.qosMu.Unlock()
	if m := r.qos[peer]; m != nil {
		m.win.mu.Lock()
		defer m.win.mu.Unlock()
		return m.win.acc, true
	}
	return a, false
}

// labelKey builds the canonical signature of a label set.
func labelKey(labels []string) string {
	if len(labels) == 0 {
		return ""
	}
	var b strings.Builder
	for i := 0; i+1 < len(labels); i += 2 {
		b.WriteString(labels[i])
		b.WriteByte(1)
		b.WriteString(labels[i+1])
		b.WriteByte(2)
	}
	return b.String()
}

// lookup finds or creates the series of one metric family, with its value
// source set under the same lock: fn if non-nil (replacing an existing
// series' source), else a new series' fresh handle. It returns a copy.
// Labels are flattened key, value pairs and must come in complete pairs.
func (r *Registry) lookup(name, help string, typ metricType, bounds []float64, fn func() float64, labels []string) series {
	if len(labels)%2 != 0 {
		panic(fmt.Sprintf("telemetry: odd label list for %s: %q", name, labels))
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	f, ok := r.index[name]
	if !ok {
		f = &family{
			name:   name,
			help:   help,
			typ:    typ,
			bounds: bounds,
			index:  make(map[string]*series),
		}
		r.index[name] = f
		r.families = append(r.families, f)
	}
	if f.typ != typ {
		panic(fmt.Sprintf("telemetry: metric %s registered as %s, requested as %s", name, f.typ, typ))
	}
	key := labelKey(labels)
	s, ok := f.index[key]
	if !ok {
		s = &series{labels: append([]string(nil), labels...), key: key, fam: f}
		switch typ {
		case typeCounter:
			s.c = &Counter{}
		case typeGauge:
			s.g = &Gauge{}
		case typeHistogram:
			s.h = &Histogram{
				bounds: f.bounds,
				counts: make([]atomic.Uint64, len(f.bounds)+1),
			}
		}
		f.index[key] = s
		for i := 0; i+1 < len(labels); i += 2 {
			pair := key
			if len(labels) > 2 {
				pair = labelKey(labels[i : i+2])
			}
			r.byLabel[pair] = append(r.byLabel[pair], s)
		}
	}
	if fn != nil {
		s.c, s.g, s.fn = nil, nil, fn
	}
	return *s
}

// Counter returns the counter for the given name and label pairs, creating
// it on first use. Repeated calls with the same name and labels return the
// same handle. Returns nil on a nil registry.
func (r *Registry) Counter(name, help string, labels ...string) *Counter {
	if r == nil {
		return nil
	}
	return r.lookup(name, help, typeCounter, nil, nil, labels).c
}

// Gauge returns the gauge for the given name and label pairs, creating it
// on first use. Returns nil on a nil registry.
func (r *Registry) Gauge(name, help string, labels ...string) *Gauge {
	if r == nil {
		return nil
	}
	return r.lookup(name, help, typeGauge, nil, nil, labels).g
}

// Histogram returns the histogram for the given name and label pairs,
// creating it on first use with the given bucket bounds (nil bounds select
// DefDelayBuckets). The bounds of the first registration win for the whole
// family. Returns nil on a nil registry.
func (r *Registry) Histogram(name, help string, bounds []float64, labels ...string) *Histogram {
	if r == nil {
		return nil
	}
	if len(bounds) == 0 {
		bounds = DefDelayBuckets
	}
	return r.lookup(name, help, typeHistogram, bounds, nil, labels).h
}

// CounterFunc registers a counter series whose value is sampled from fn at
// scrape time, replacing the source of one already registered under the
// same name and labels. Use it for monotone counts another component
// already maintains under its own synchronization — the hot path then
// carries no extra atomics at all. No-op on a nil registry.
func (r *Registry) CounterFunc(name, help string, fn func() float64, labels ...string) {
	if r == nil || fn == nil {
		return
	}
	r.lookup(name, help, typeCounter, nil, fn, labels)
}

// GaugeFunc registers a gauge series whose value is sampled from fn at
// scrape time, replacing the source of one already registered under the
// same name and labels. No-op on a nil registry.
func (r *Registry) GaugeFunc(name, help string, fn func() float64, labels ...string) {
	if r == nil || fn == nil {
		return
	}
	r.lookup(name, help, typeGauge, nil, fn, labels)
}

// DropSeries removes every series carrying the given label key and value
// across all families — used when a peer leaves the cluster so its series
// do not linger forever under membership churn. It costs the dropped
// series, not the registry's size.
func (r *Registry) DropSeries(label, value string) {
	if r == nil {
		return
	}
	pair := labelKey([]string{label, value})
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, s := range r.byLabel[pair] {
		delete(s.fam.index, s.key)
		if len(s.labels) <= 2 {
			continue // listed under pair alone
		}
		for i := 0; i+1 < len(s.labels); i += 2 {
			if other := labelKey(s.labels[i : i+2]); other != pair {
				list := slices.DeleteFunc(r.byLabel[other], func(o *series) bool { return o == s })
				if len(list) == 0 {
					delete(r.byLabel, other)
				} else {
					r.byLabel[other] = list
				}
			}
		}
	}
	delete(r.byLabel, pair)
}

// escapeLabel escapes a label value for the text exposition format.
func escapeLabel(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	var b strings.Builder
	for _, c := range v {
		switch c {
		case '\\':
			b.WriteString(`\\`)
		case '"':
			b.WriteString(`\"`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteRune(c)
		}
	}
	return b.String()
}

// formatValue renders a sample value the way Prometheus expects.
func formatValue(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// writeLabels renders {k="v",...}; extra, when non-empty, is an extra
// pre-escaped pair (the histogram "le" bound) appended last.
func writeLabels(b *strings.Builder, labels []string, extraKey, extraVal string) {
	if len(labels) == 0 && extraKey == "" {
		return
	}
	b.WriteByte('{')
	first := true
	for i := 0; i+1 < len(labels); i += 2 {
		if !first {
			b.WriteByte(',')
		}
		first = false
		b.WriteString(labels[i])
		b.WriteString(`="`)
		b.WriteString(escapeLabel(labels[i+1]))
		b.WriteByte('"')
	}
	if extraKey != "" {
		if !first {
			b.WriteByte(',')
		}
		b.WriteString(extraKey)
		b.WriteString(`="`)
		b.WriteString(extraVal)
		b.WriteByte('"')
	}
	b.WriteByte('}')
}

// WritePrometheus writes every family in the Prometheus text exposition
// format (version 0.0.4), families in registration order, series sorted by
// label signature within a family. A nil registry writes nothing.
//
// The read lock is held only to copy each series with its value source,
// never across value reads: callback-backed series (CounterFunc/GaugeFunc)
// may take component locks — e.g. a detector mutex — whose holders in turn
// register series, so sampling under the registry lock would invert the
// lock order.
func (r *Registry) WritePrometheus(w io.Writer) error {
	if r == nil {
		return nil
	}
	type famSnap struct {
		name   string
		help   string
		typ    metricType
		bounds []float64
		series []series
	}
	r.mu.RLock()
	snap := make([]famSnap, 0, len(r.families))
	for _, f := range r.families {
		if len(f.index) == 0 {
			continue
		}
		series := make([]series, 0, len(f.index))
		for _, s := range f.index {
			series = append(series, *s)
		}
		snap = append(snap, famSnap{
			name:   f.name,
			help:   f.help,
			typ:    f.typ,
			bounds: f.bounds,
			series: series,
		})
	}
	r.mu.RUnlock()
	var b strings.Builder
	for _, f := range snap {
		b.Reset()
		b.WriteString("# HELP ")
		b.WriteString(f.name)
		b.WriteByte(' ')
		b.WriteString(f.help)
		b.WriteString("\n# TYPE ")
		b.WriteString(f.name)
		b.WriteByte(' ')
		b.WriteString(string(f.typ))
		b.WriteByte('\n')
		ordered := f.series
		sort.Slice(ordered, func(i, j int) bool { return ordered[i].key < ordered[j].key })
		for _, s := range ordered {
			switch f.typ {
			case typeCounter:
				b.WriteString(f.name)
				writeLabels(&b, s.labels, "", "")
				b.WriteByte(' ')
				if s.fn != nil {
					b.WriteString(strconv.FormatUint(uint64(s.fn()), 10))
				} else {
					b.WriteString(strconv.FormatUint(s.c.Value(), 10))
				}
				b.WriteByte('\n')
			case typeGauge:
				b.WriteString(f.name)
				writeLabels(&b, s.labels, "", "")
				b.WriteByte(' ')
				if s.fn != nil {
					b.WriteString(formatValue(s.fn()))
				} else {
					b.WriteString(formatValue(s.g.Value()))
				}
				b.WriteByte('\n')
			case typeHistogram:
				// Cumulative buckets; the snapshot is not atomic across
				// buckets, which Prometheus scrapes tolerate by design.
				var cum uint64
				for i, bound := range f.bounds {
					cum += s.h.counts[i].Load()
					b.WriteString(f.name)
					b.WriteString("_bucket")
					writeLabels(&b, s.labels, "le", formatValue(bound))
					b.WriteByte(' ')
					b.WriteString(strconv.FormatUint(cum, 10))
					b.WriteByte('\n')
				}
				cum += s.h.counts[len(f.bounds)].Load()
				b.WriteString(f.name)
				b.WriteString("_bucket")
				writeLabels(&b, s.labels, "le", "+Inf")
				b.WriteByte(' ')
				b.WriteString(strconv.FormatUint(cum, 10))
				b.WriteByte('\n')
				b.WriteString(f.name)
				b.WriteString("_sum")
				writeLabels(&b, s.labels, "", "")
				b.WriteByte(' ')
				b.WriteString(formatValue(s.h.Sum()))
				b.WriteByte('\n')
				b.WriteString(f.name)
				b.WriteString("_count")
				writeLabels(&b, s.labels, "", "")
				b.WriteByte(' ')
				b.WriteString(strconv.FormatUint(s.h.Count(), 10))
				b.WriteByte('\n')
			}
		}
		if _, err := io.WriteString(w, b.String()); err != nil {
			return err
		}
	}
	return nil
}
