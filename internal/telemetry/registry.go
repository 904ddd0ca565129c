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
// is disabled. A registry has two value shapes. Live handles (Counter,
// Gauge, Histogram lookups) take a registry lock and are made at
// construction time, never per observation. Collectors (Collect) write
// every sample of their families in one call per scrape, from state their
// component keeps anyway: a monitor's per-peer series are one collector
// walking its peer table, so the registry holds nothing per peer.
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
	"unicode/utf8"
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

// Type is the Prometheus exposition type of a metric family.
type Type string

// The three family types.
const (
	TypeCounter   Type = "counter"
	TypeGauge     Type = "gauge"
	TypeHistogram Type = "histogram"
)

// series is one labeled live handle of a metric family: exactly one of
// c, g and h is set, according to the family's type.
type series struct {
	labels []string // flattened k,v pairs, as passed in
	key    string   // canonical label signature
	c      *Counter
	g      *Gauge
	h      *Histogram
}

// family is one named metric: its live series and its place in the
// exposition. A collector may write samples into it as well.
type family struct {
	name string
	help string
	typ  Type
	// bounds are a histogram family's bucket bounds, set with its first
	// live histogram, which keeps them too.
	bounds []float64
	// index holds the family's live series by label signature; the
	// exposition writes them sorted by it.
	index map[string]*series
}

// Desc names one family a collector declares: its name, help string and
// type.
type Desc struct {
	Name, Help string
	Type       Type
}

// collector is one scrape-time source: fn writes the samples of fams,
// which are in the order of the Descs it was registered with.
type collector struct {
	fn   func(*Scrape)
	fams []*family
	// sizes are the bytes fn wrote to each family at the last scrape: the
	// next one sizes its own buffers from them, so its samples are
	// allocated once, not once per doubling.
	sizes []atomic.Int64
}

// Registry is the telemetry hub: the metric families, the collectors that
// write samples into them at scrape time, and the suspicion event ring, so
// one handle wires a whole monitor. It serves one monitor for its lifetime
// (Claim). It keeps no per-peer state: a monitor's per-peer series are
// written by one collector that walks the monitor's own peer table. The
// zero value is not usable; construct with NewRegistry. A nil *Registry is
// valid everywhere and disables telemetry.
//
//fdlint:nilsafe
type Registry struct {
	claimed    atomic.Bool
	mu         sync.RWMutex
	families   []*family // registration order
	index      map[string]*family
	collectors []*collector // registration order

	events *EventRing
}

// NewRegistry returns an empty registry with a suspicion-event ring of the
// given capacity (eventCap <= 0 selects the default of 512 events).
func NewRegistry(eventCap int) *Registry {
	if eventCap <= 0 {
		eventCap = 512
	}
	return &Registry{
		index:  make(map[string]*family),
		events: NewEventRing(eventCap),
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

// familyLocked finds or creates the family of one name. A histogram family
// declared by a collector takes its bounds from its first live histogram.
// Callers hold r.mu for writing.
func (r *Registry) familyLocked(name, help string, typ Type, bounds []float64) *family {
	f, ok := r.index[name]
	if !ok {
		f = &family{name: name, help: help, typ: typ, index: make(map[string]*series)}
		r.index[name] = f
		r.families = append(r.families, f)
	}
	if f.typ != typ {
		panic(fmt.Sprintf("telemetry: metric %s registered as %s, requested as %s", name, f.typ, typ))
	}
	if f.bounds == nil {
		f.bounds = bounds
	}
	return f
}

// lookup finds or creates the live series of one metric family. Labels are
// flattened key, value pairs and must come in complete pairs.
func (r *Registry) lookup(name, help string, typ Type, bounds []float64, labels []string) *series {
	if len(labels)%2 != 0 {
		panic(fmt.Sprintf("telemetry: odd label list for %s: %q", name, labels))
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.familyLocked(name, help, typ, bounds)
	key := labelKey(labels)
	s, ok := f.index[key]
	if !ok {
		s = &series{labels: append([]string(nil), labels...), key: key}
		switch typ {
		case TypeCounter:
			s.c = &Counter{}
		case TypeGauge:
			s.g = &Gauge{}
		case TypeHistogram:
			s.h = &Histogram{
				bounds: f.bounds,
				counts: make([]atomic.Uint64, len(f.bounds)+1),
			}
		}
		f.index[key] = s
	}
	return s
}

// Counter returns the counter for the given name and label pairs, creating
// it on first use. Repeated calls with the same name and labels return the
// same handle. Returns nil on a nil registry.
func (r *Registry) Counter(name, help string, labels ...string) *Counter {
	if r == nil {
		return nil
	}
	return r.lookup(name, help, TypeCounter, nil, labels).c
}

// Gauge returns the gauge for the given name and label pairs, creating it
// on first use. Returns nil on a nil registry.
func (r *Registry) Gauge(name, help string, labels ...string) *Gauge {
	if r == nil {
		return nil
	}
	return r.lookup(name, help, TypeGauge, nil, labels).g
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
	return r.lookup(name, help, TypeHistogram, bounds, labels).h
}

// Collect registers fn as a scrape-time source of the counter and gauge
// families descs names, creating each that does not exist yet in the order
// given: fn runs once per WritePrometheus and writes every sample of those
// families through its Scrape, addressing a family by its index in descs.
// Use it for values another component already maintains under its own
// synchronization — one snapshot per scrape, no hot-path cost. A histogram
// Desc only fixes its family's place among the others: its samples are
// the live histogram registered under its name. fn runs without the
// registry's lock, so it may take any component lock; it must not call
// Collect. No-op on a nil registry.
func (r *Registry) Collect(fn func(*Scrape), descs ...Desc) {
	if r == nil {
		return
	}
	c := &collector{fn: fn, fams: make([]*family, len(descs)), sizes: make([]atomic.Int64, len(descs))}
	r.mu.Lock()
	defer r.mu.Unlock()
	for i, d := range descs {
		c.fams[i] = r.familyLocked(d.Name, d.Help, d.Type, nil)
	}
	r.collectors = append(r.collectors, c)
}

// Scrape is what a collector writes into during one WritePrometheus: one
// sample buffer per family it declared, indexed as its Descs.
type Scrape struct {
	fams []*family
	bufs [][]byte
}

// Counter writes one sample of the i-th declared family, a counter, with
// the given label pairs.
func (s *Scrape) Counter(i int, v uint64, labels ...string) {
	b := appendSample(s.bufs[i], s.fams[i].name, "", labels, "", "")
	s.bufs[i] = append(strconv.AppendUint(b, v, 10), '\n')
}

// Gauge writes one sample of the i-th declared family, a gauge, with the
// given label pairs.
func (s *Scrape) Gauge(i int, v float64, labels ...string) {
	b := appendSample(s.bufs[i], s.fams[i].name, "", labels, "", "")
	s.bufs[i] = append(appendValue(b, v), '\n')
}

// appendLabel appends a label value escaped for the text exposition
// format.
func appendLabel(b []byte, v string) []byte {
	if !strings.ContainsAny(v, "\\\"\n") {
		return append(b, v...)
	}
	for _, c := range v {
		switch c {
		case '\\':
			b = append(b, `\\`...)
		case '"':
			b = append(b, `\"`...)
		case '\n':
			b = append(b, `\n`...)
		default:
			b = utf8.AppendRune(b, c)
		}
	}
	return b
}

// appendValue appends a sample value the way Prometheus expects.
func appendValue(b []byte, v float64) []byte {
	switch {
	case math.IsInf(v, 1):
		return append(b, "+Inf"...)
	case math.IsInf(v, -1):
		return append(b, "-Inf"...)
	}
	return strconv.AppendFloat(b, v, 'g', -1, 64)
}

// appendLabels appends {k="v",...}; extraKey, when non-empty, is an extra
// pair with a pre-escaped value (the histogram "le" bound) appended last.
func appendLabels(b []byte, labels []string, extraKey, extraVal string) []byte {
	if len(labels) == 0 && extraKey == "" {
		return b
	}
	b = append(b, '{')
	for i := 0; i+1 < len(labels); i += 2 {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, labels[i]...)
		b = append(b, `="`...)
		b = appendLabel(b, labels[i+1])
		b = append(b, '"')
	}
	if extraKey != "" {
		if len(labels) > 0 {
			b = append(b, ',')
		}
		b = append(b, extraKey...)
		b = append(b, `="`...)
		b = append(b, extraVal...)
		b = append(b, '"')
	}
	return append(b, '}')
}

// appendSample appends the start of one sample line: the family name with
// its suffix, the labels (see appendLabels) and the space before the value.
func appendSample(b []byte, name, suffix string, labels []string, extraKey, extraVal string) []byte {
	b = append(append(b, name...), suffix...)
	return append(appendLabels(b, labels, extraKey, extraVal), ' ')
}

// appendSeries appends the sample lines of one live series of f.
func appendSeries(b []byte, f *family, s *series) []byte {
	switch f.typ {
	case TypeCounter:
		b = strconv.AppendUint(appendSample(b, f.name, "", s.labels, "", ""), s.c.Value(), 10)
	case TypeGauge:
		b = appendValue(appendSample(b, f.name, "", s.labels, "", ""), s.g.Value())
	case TypeHistogram:
		// Cumulative buckets; the snapshot is not atomic across buckets,
		// which Prometheus scrapes tolerate by design.
		var cum uint64
		for i, bound := range s.h.bounds {
			cum += s.h.counts[i].Load()
			b = appendSample(b, f.name, "_bucket", s.labels, "le", string(appendValue(nil, bound)))
			b = append(strconv.AppendUint(b, cum, 10), '\n')
		}
		cum += s.h.counts[len(s.h.bounds)].Load()
		b = appendSample(b, f.name, "_bucket", s.labels, "le", "+Inf")
		b = append(strconv.AppendUint(b, cum, 10), '\n')
		b = append(appendValue(appendSample(b, f.name, "_sum", s.labels, "", ""), s.h.Sum()), '\n')
		b = strconv.AppendUint(appendSample(b, f.name, "_count", s.labels, "", ""), s.h.Count(), 10)
	}
	return append(b, '\n')
}

// famSnap is one family as a scrape writes it: its live series copied
// under the registry's read lock, and the sample buffers its collectors
// wrote.
type famSnap struct {
	*family
	series    []*series
	collected [][]byte
}

// WritePrometheus writes every family in the Prometheus text exposition
// format (version 0.0.4), families in registration order, each with its
// live series sorted by label signature and then the samples its
// collectors wrote, in their registration and writing order. A family with
// no sample is left out. A nil registry writes nothing.
//
// The read lock is held only to copy the families and the collector list;
// the collectors run after it is released, each once: they take component
// locks — a monitor's peer table, a detector's mutex — whose holders may
// in turn register series.
func (r *Registry) WritePrometheus(w io.Writer) error {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	snap := make([]famSnap, len(r.families))
	at := make(map[*family]*famSnap, len(r.families))
	for i, f := range r.families {
		series := make([]*series, 0, len(f.index))
		for _, s := range f.index {
			series = append(series, s)
		}
		snap[i] = famSnap{family: f, series: series}
		at[f] = &snap[i]
	}
	collectors := slices.Clone(r.collectors)
	r.mu.RUnlock()
	for _, c := range collectors {
		s := Scrape{fams: c.fams, bufs: make([][]byte, len(c.fams))}
		for i := range s.bufs {
			if n := c.sizes[i].Load(); n > 0 {
				s.bufs[i] = make([]byte, 0, n+n/16)
			}
		}
		c.fn(&s)
		for i, f := range c.fams {
			c.sizes[i].Store(int64(len(s.bufs[i])))
			if len(s.bufs[i]) > 0 {
				at[f].collected = append(at[f].collected, s.bufs[i])
			}
		}
	}
	var b []byte
	for i := range snap {
		f := &snap[i]
		if len(f.series) == 0 && len(f.collected) == 0 {
			continue
		}
		b = fmt.Appendf(b[:0], "# HELP %s %s\n# TYPE %s %s\n", f.name, f.help, f.name, f.typ)
		sort.Slice(f.series, func(i, j int) bool { return f.series[i].key < f.series[j].key })
		for _, s := range f.series {
			b = appendSeries(b, f.family, s)
		}
		if _, err := w.Write(b); err != nil {
			return err
		}
		for _, c := range f.collected {
			if _, err := w.Write(c); err != nil {
				return err
			}
		}
	}
	return nil
}
