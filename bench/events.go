//fdlint:file-ignore clockuse the callback stamps suspicion transitions on the real wall clock, the same clock the generator times sends on

package main

import (
	"sort"
	"sync/atomic"
	"time"
)

// event is one OnChange callback: which peer, which way, and when the
// callback was entered (on the generator's base clock).
type event struct {
	at        time.Duration
	peer      int32
	suspected bool
}

// eventLog is the callback's preallocated slab. Monitor goroutines claim a
// cell through one atomic index and fill it: no lock, no allocation and no
// map lookup on the path being timed.
type eventLog struct {
	base time.Time
	n    atomic.Int64
	buf  []event
}

func newEventLog(base time.Time, capacity int) *eventLog {
	return &eventLog{base: base, buf: make([]event, capacity)}
}

// onChange is the WithOnChange callback.
func (l *eventLog) onChange(peer string, suspected bool, _ time.Duration) {
	at := time.Since(l.base)
	i := l.n.Add(1) - 1
	if i < int64(len(l.buf)) {
		l.buf[i] = event{at: at, peer: peerIndex(peer), suspected: suspected}
	}
}

// events returns what was logged and how many callbacks found the slab
// full. It must only be called once the monitor is closed.
func (l *eventLog) events() (evs []event, overflow int64) {
	n := l.n.Load()
	if n > int64(len(l.buf)) {
		return l.buf, n - int64(len(l.buf))
	}
	return l.buf[:n], 0
}

// gap is one pause of a probe-class peer: the heartbeat before it fixes
// the freshness point tau, the heartbeat after it ends the suspicion.
// resume is that heartbeat's actual send instant, or a negative value when
// the run ended first.
type gap struct {
	peer        int32
	tau, resume time.Duration
	// tainted gaps cannot be judged: a heartbeat shortly before them left
	// so late that the detector's timeout is off the floor, and tau with it.
	tainted bool
}

// verdict classifies one half of a probe cycle: the suspicion the pause
// must produce, or the trust the resume heartbeat must produce.
type verdict uint8

const (
	cycleOK verdict = iota
	// cycleMissed: the freshness point passed and no suspicion followed.
	cycleMissed
	// cycleLate: the suspicion came more than detectWindow after tau.
	cycleLate
	// cycleEarly: a suspicion preceded the freshness point it was due at.
	cycleEarly
	// cycleDuplicate: a second suspicion inside one pause.
	cycleDuplicate
	// cycleNoTrust: the resume heartbeat produced no trust.
	cycleNoTrust
	// cycleLateTrust: the trust came more than min(η, detectWindow) after
	// the resume send.
	cycleLateTrust
	numVerdicts
)

var verdictNames = [numVerdicts]string{
	"ok", "missed", "late", "early", "duplicate", "missing_trust", "late_trust",
}

// detectWindow is how long after its freshness point a suspicion may
// arrive and still count as detected.
const detectWindow = 250 * time.Millisecond

// outcome is the classifier's finding for one gap: detect is ok, missed,
// late, early or duplicate; trust is ok, missing_trust or late_trust.
type outcome struct {
	gap
	detect, trust verdict
	// detectLag is callback entry minus tau; trustLatency is callback entry
	// minus the resume send. Negative when the transition never came.
	detectLag, trustLatency time.Duration
	// blamed is when the transition behind an early or duplicate verdict
	// happened, which may be well before tau.
	blamed time.Duration
}

// taintedSends is how many heartbeats a late one spoils. A heartbeat that
// leaves a stall of d after its stamp is a delay observation of d: LAST
// predicts d for the next one and the Jacobson margin takes about this many
// observations to forget the error, so until then the timeout may sit above
// the floor the schedule assumes.
const taintedSends = 6

// gapsOf derives a peer's expected pauses from its logged sends (in send
// order): two consecutive heartbeats stamped further apart than η + timeout
// leave the monitor without a fresh one at tau = stamp + η + timeout. Gaps
// within taintedSends of a heartbeat sent more than a third of the timeout
// late are marked tainted.
func gapsOf(sends []sendRec, eta, timeout time.Duration, runEnd time.Duration) []gap {
	var out []gap
	taint := 0
	for i, s := range sends {
		if s.actual-s.stamp > timeout/3 {
			taint = taintedSends
		}
		tau := s.stamp + eta + timeout
		switch {
		case i+1 < len(sends):
			if next := sends[i+1]; next.stamp > tau {
				out = append(out, gap{peer: s.peer, tau: tau, resume: next.actual, tainted: taint > 0})
			}
		case tau < runEnd:
			out = append(out, gap{peer: s.peer, tau: tau, resume: -1, tainted: taint > 0})
		}
		taint = max(taint-1, 0)
	}
	return out
}

// classifyPeer matches one peer's transitions (time-ordered) against its
// expected gaps (time-ordered). stray collects transitions no gap accounts
// for: a suspicion of a peer that was sending on time, or its trust.
//
// A suspicion at t belongs to the latest gap whose tau is not after t, so
// it is never charged to the gap after a heartbeat that may still be in
// flight: the paper's contract only forbids suspecting before the
// freshness point of a heartbeat the monitor must have seen. A suspicion
// that fits no begun gap is early if the peer had already stopped sending
// towards the next one (lead = η + timeout before its tau), and stray
// otherwise. A trust later than trustWindow after the resume send is late.
func classifyPeer(gaps []gap, evs []event, trustWindow, lead time.Duration) (out []outcome, stray []event) {
	out = make([]outcome, len(gaps))
	detected := make([]bool, len(gaps))
	trusted := make([]bool, len(gaps))
	for i, g := range gaps {
		out[i] = outcome{gap: g, detectLag: -1, trustLatency: -1}
	}
	mark := func(v *verdict, to verdict) {
		if *v == cycleOK {
			*v = to
		}
	}
	for _, ev := range evs {
		if ev.suspected {
			i := sort.Search(len(gaps), func(i int) bool { return gaps[i].tau > ev.at }) - 1
			switch {
			case i >= 0 && !detected[i]:
				detected[i] = true
				out[i].detectLag = ev.at - gaps[i].tau
				if out[i].detectLag > detectWindow {
					mark(&out[i].detect, cycleLate)
				}
			case i >= 0 && (gaps[i].resume < 0 || ev.at < gaps[i].resume):
				mark(&out[i].detect, cycleDuplicate)
				out[i].blamed = ev.at
			case i+1 < len(gaps) && ev.at >= gaps[i+1].tau-lead:
				mark(&out[i+1].detect, cycleEarly)
				out[i+1].blamed = ev.at
			default:
				stray = append(stray, ev)
			}
			continue
		}
		// The latest gap whose resume heartbeat had been sent by now.
		i := len(gaps) - 1
		for i >= 0 && (gaps[i].resume < 0 || gaps[i].resume > ev.at) {
			i--
		}
		if i < 0 || !detected[i] || trusted[i] {
			stray = append(stray, ev)
			continue
		}
		trusted[i] = true
		out[i].trustLatency = ev.at - gaps[i].resume
		if out[i].trustLatency > trustWindow {
			mark(&out[i].trust, cycleLateTrust)
		}
	}
	for i, g := range gaps {
		switch {
		case !detected[i]:
			mark(&out[i].detect, cycleMissed)
		case g.resume >= 0 && !trusted[i]:
			mark(&out[i].trust, cycleNoTrust)
		}
	}
	return out, stray
}
