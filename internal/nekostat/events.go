// Package nekostat plays the role of the paper's NekoStat add-on: it
// collects the distributed events of an experiment run (Sent, Received,
// StartSuspect, EndSuspect, Crash, Restore) and turns them into the QoS
// metrics of Chen, Toueg and Aguilera — detection time T_D, maximum
// detection time T_D^U, mistake duration T_M, mistake recurrence time T_MR
// and query accuracy probability P_A.
package nekostat

import (
	"sort"
	"sync"
	"time"
)

// Kind classifies an experiment event.
type Kind int

// Event kinds, mirroring the events the paper's FD StatHandler consumes.
const (
	KindSent Kind = iota + 1
	KindReceived
	KindStartSuspect
	KindEndSuspect
	KindCrash
	KindRestore
)

// String returns the event kind name.
func (k Kind) String() string {
	switch k {
	case KindSent:
		return "Sent"
	case KindReceived:
		return "Received"
	case KindStartSuspect:
		return "StartSuspect"
	case KindEndSuspect:
		return "EndSuspect"
	case KindCrash:
		return "Crash"
	case KindRestore:
		return "Restore"
	default:
		return "Unknown"
	}
}

// Event is one timestamped experiment event. Source names the detector for
// suspicion events and is empty for crash events.
type Event struct {
	Kind   Kind
	At     time.Duration
	Source string
	Seq    int64
}

// Collector accumulates events. It is safe for concurrent use (real-network
// runs deliver events from multiple goroutines) and implements both the
// detector's SuspicionListener and the fault injector's CrashListener.
type Collector struct {
	mu     sync.Mutex
	events []Event
}

// NewCollector returns an empty collector.
func NewCollector() *Collector { return &Collector{} }

// Record appends one event.
func (c *Collector) Record(e Event) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.events = append(c.events, e)
}

// OnSuspect implements core.SuspicionListener.
func (c *Collector) OnSuspect(detector string, at time.Duration) {
	c.Record(Event{Kind: KindStartSuspect, At: at, Source: detector})
}

// OnTrust implements core.SuspicionListener.
func (c *Collector) OnTrust(detector string, at time.Duration) {
	c.Record(Event{Kind: KindEndSuspect, At: at, Source: detector})
}

// OnCrash implements layers.CrashListener.
func (c *Collector) OnCrash(at time.Duration) {
	c.Record(Event{Kind: KindCrash, At: at})
}

// OnRestore implements layers.CrashListener.
func (c *Collector) OnRestore(at time.Duration) {
	c.Record(Event{Kind: KindRestore, At: at})
}

// Events returns a time-sorted copy of the collected events.
func (c *Collector) Events() []Event {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]Event, len(c.events))
	copy(out, c.events)
	sort.SliceStable(out, func(i, j int) bool { return out[i].At < out[j].At })
	return out
}

// Len returns the number of collected events.
func (c *Collector) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.events)
}

// Interval is a half-open time span [Start, End). Open intervals (still
// running at the end of the observation window) have Open set; their End is
// the window end.
type Interval struct {
	Start, End time.Duration
	Open       bool
}

// Duration returns End − Start.
func (iv Interval) Duration() time.Duration { return iv.End - iv.Start }

// Covers reports whether t lies within the interval (inclusive of both
// edges, since suspicion is active at the instant it starts and the
// processes' restore instant belongs to the covering suspicion).
func (iv Interval) Covers(t time.Duration) bool { return iv.Start <= t && t <= iv.End }

// Overlaps reports whether two intervals intersect.
func (iv Interval) Overlaps(o Interval) bool { return iv.Start < o.End && o.Start < iv.End }

// SuspicionIntervals extracts, from a sorted event list, the suspicion
// intervals of the named detector within a window ending at windowEnd.
func SuspicionIntervals(events []Event, detector string, windowEnd time.Duration) []Interval {
	return intervals(events, KindStartSuspect, KindEndSuspect, windowEnd, func(e Event) bool { return e.Source == detector })
}

// CrashIntervals extracts the crash periods from a sorted event list within
// a window ending at windowEnd.
func CrashIntervals(events []Event, windowEnd time.Duration) []Interval {
	return intervals(events, KindCrash, KindRestore, windowEnd, func(Event) bool { return true })
}

// intervals pairs each opening event that match selects with the next
// closing one; repeated openings and closings with nothing open are
// ignored, and an interval still open at the end runs to windowEnd.
func intervals(events []Event, opening, closing Kind, windowEnd time.Duration, match func(Event) bool) []Interval {
	var out []Interval
	var openAt time.Duration
	open := false
	for _, e := range events {
		if !match(e) {
			continue
		}
		switch {
		case e.Kind == opening && !open:
			openAt, open = e.At, true
		case e.Kind == closing && open:
			out = append(out, Interval{Start: openAt, End: e.At})
			open = false
		}
	}
	if open {
		out = append(out, Interval{Start: openAt, End: windowEnd, Open: true})
	}
	return out
}
