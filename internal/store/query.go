package store

import (
	"errors"
	"fmt"
	"sort"
	"time"

	"wanfd/internal/nekostat"
	"wanfd/internal/stats"
	"wanfd/internal/trace"
)

// ErrDisabled is returned by Query and Export on a nil store.
var ErrDisabled = errors.New("store: not enabled")

// WindowReport is the answer to one windowed QoS query: per-peer delay
// quantiles and the Chen/Toueg/Aguilera accuracy metrics recomputed from
// the durable record over exactly [From, To).
type WindowReport struct {
	From time.Duration `json:"from_nanos"`
	To   time.Duration `json:"to_nanos"`
	// Peers is sorted by name.
	Peers []PeerWindow `json:"peers"`
	// Dropped is the store's lifetime overflow count at query time: when
	// non-zero the window may undercount (the store never blocks the hot
	// path to stay lossless).
	Dropped uint64 `json:"dropped"`
}

// PeerWindow is one peer's slice of a WindowReport.
type PeerWindow struct {
	Peer string `json:"peer"`
	// Samples counts delay observations received inside the window;
	// DelayMs summarizes them (quantiles in milliseconds).
	Samples int           `json:"samples"`
	DelayMs stats.Summary `json:"delay_ms"`
	// Suspicions counts suspicion starts inside the window.
	Suspicions int `json:"suspicions"`
	// QoS is the windowed accuracy recomputation.
	QoS QoSWindow `json:"qos"`
}

// QoSWindow carries the windowed QoS metrics of one peer, computed by the
// same nekostat handlers the experiment harness uses. Duration summaries
// are in milliseconds, the unit of the paper's figures.
type QoSWindow struct {
	Crashes  int `json:"crashes"`
	Detected int `json:"detected"`
	Missed   int `json:"missed"`
	Mistakes int `json:"mistakes"`
	// TD/TM/TMR are detection time, mistake duration and mistake
	// recurrence; PA is (E[T_MR]−E[T_M])/E[T_MR], PATimeline the direct
	// timeline measure.
	TD         stats.Summary `json:"td_ms"`
	TM         stats.Summary `json:"tm_ms"`
	TMR        stats.Summary `json:"tmr_ms"`
	PA         float64       `json:"pa"`
	PATimeline float64       `json:"pa_timeline"`
}

// segSnap is a reader's consistent view of one segment: scanning path up
// to limit bytes sees only whole, CRC-clean frames, because the writer
// publishes byte counts under the store lock only after the file write.
type segSnap struct {
	path  string
	epoch int64
	limit int64
	minAt time.Duration
}

// snapshot captures the segment list (sealed + active) and flushes the
// queue so everything pushed before the call is visible. Sync on a closed
// store is a no-op: the writer drained on Close.
func (s *Store) snapshot() []segSnap {
	if err := s.Sync(); err != nil && !errors.Is(err, ErrClosed) {
		s.ioErrors.Add(1)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	snaps := make([]segSnap, 0, len(s.segs)+1)
	for _, seg := range s.segs {
		snaps = append(snaps, segSnap{path: seg.path, epoch: seg.epoch, limit: seg.bytes, minAt: seg.minAt})
	}
	if s.active != nil {
		a := s.active
		snaps = append(snaps, segSnap{path: a.path, epoch: a.epoch, limit: a.bytes, minAt: a.minAt})
	}
	return snaps
}

// resolveTo turns an open window end (to <= 0) into "now": the injected
// clock when one is configured, otherwise one nanosecond past the newest
// record so the latest data is included.
func (s *Store) resolveTo(to time.Duration) time.Duration {
	if to > 0 {
		return to
	}
	if s.clock != nil {
		return s.clock.Now()
	}
	s.mu.Lock()
	maxAbs := s.maxAbs
	s.mu.Unlock()
	return time.Duration(maxAbs-s.epoch) + 1
}

// collectWindow streams every segment overlapping [from, to) and gathers
// per-peer delay samples plus the event timeline. Events before from are
// kept (a suspicion or crash interval may start before the window and end
// inside it — nekostat drops what ends too early); samples are strictly
// windowed on their receive instant. peer filters to one peer when
// non-empty; crash marks are global and always kept.
func (s *Store) collectWindow(from, to time.Duration, peer string, sample func(peerName string, rec Record, send, recv time.Duration)) ([]nekostat.Event, error) {
	dict := make(map[uint32]string)
	var events []nekostat.Event
	for _, sn := range s.snapshot() {
		base := sn.epoch - s.epoch
		if sn.minAt >= 0 && time.Duration(int64(sn.minAt)+base) >= to {
			continue
		}
		_, err := scanSegment(sn.path, sn.limit, func(rec Record, name string) error {
			switch rec.Kind {
			case recPeerDef:
				dict[rec.Peer] = name
			case recSample:
				pname := peerName(dict, rec.Peer)
				if peer != "" && pname != peer {
					return nil
				}
				recv := time.Duration(rec.T2 + base)
				if recv < from || recv >= to {
					return nil
				}
				sample(pname, rec, time.Duration(rec.T1+base), recv)
			case recStartSuspect, recEndSuspect:
				pname := peerName(dict, rec.Peer)
				if peer != "" && pname != peer {
					return nil
				}
				at := time.Duration(rec.T1 + base)
				if at >= to {
					return nil
				}
				kind := nekostat.KindEndSuspect
				if rec.Kind == recStartSuspect {
					kind = nekostat.KindStartSuspect
				}
				events = append(events, nekostat.Event{Kind: kind, At: at, Source: pname, Seq: rec.Seq})
			case recCrash, recRestore:
				at := time.Duration(rec.T1 + base)
				if at >= to {
					return nil
				}
				kind := nekostat.KindCrash
				if rec.Kind == recRestore {
					kind = nekostat.KindRestore
				}
				events = append(events, nekostat.Event{Kind: kind, At: at})
			}
			return nil
		})
		if err != nil {
			return nil, fmt.Errorf("store: scan %s: %w", sn.path, err)
		}
	}
	sort.SliceStable(events, func(i, j int) bool { return events[i].At < events[j].At })
	return events, nil
}

// Query recomputes the QoS metrics over [from, to) from the durable
// record, streaming segments through the nekostat handlers. to <= 0 means
// "now" (see resolveTo); peer filters to one peer when non-empty.
// Nil-safe: a nil store returns ErrDisabled.
func (s *Store) Query(from, to time.Duration, peer string) (*WindowReport, error) {
	if s == nil {
		return nil, ErrDisabled
	}
	to = s.resolveTo(to)
	if to <= from {
		return nil, fmt.Errorf("store: empty window [%v, %v)", from, to)
	}
	type peerAcc struct {
		samples int
		delays  []float64
	}
	accs := make(map[string]*peerAcc)
	acc := func(name string) *peerAcc {
		a := accs[name]
		if a == nil {
			a = &peerAcc{}
			accs[name] = a
		}
		return a
	}
	events, err := s.collectWindow(from, to, peer, func(pname string, rec Record, send, recv time.Duration) {
		a := acc(pname)
		a.samples++
		a.delays = append(a.delays, float64(rec.T2-rec.T1)/float64(time.Millisecond))
	})
	if err != nil {
		return nil, err
	}
	// One pass partitions the timeline by peer. Peers with suspicion
	// history but no samples in the window still get a row — their accuracy
	// metrics are the interesting part.
	byPeer := make(map[string][]nekostat.Event)
	for _, e := range events {
		if e.Source != "" {
			acc(e.Source)
			byPeer[e.Source] = append(byPeer[e.Source], e)
		}
	}
	crashes := nekostat.CrashIntervals(events, to)
	report := &WindowReport{From: from, To: to, Dropped: s.dropped.Load()}
	names := make([]string, 0, len(accs))
	for name := range accs {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		a := accs[name]
		pw := PeerWindow{Peer: name, Samples: a.samples}
		if len(a.delays) > 0 {
			sum, err := stats.Summarize(a.delays)
			if err != nil {
				return nil, err
			}
			pw.DelayMs = sum
		}
		evs := byPeer[name]
		q, err := nekostat.ComputeQoS(name, nekostat.SuspicionIntervals(evs, name, to), crashes, from, to)
		if err != nil {
			return nil, err
		}
		for _, e := range evs {
			if e.Kind == nekostat.KindStartSuspect && e.At >= from {
				pw.Suspicions++
			}
		}
		pw.QoS = QoSWindow{
			Crashes:    q.Crashes,
			Detected:   q.Detected,
			Missed:     q.Missed,
			Mistakes:   q.Mistakes,
			TD:         q.TD,
			TM:         q.TM,
			TMR:        q.TMR,
			PA:         q.PA,
			PATimeline: q.PATimeline,
		}
		report.Peers = append(report.Peers, pw)
	}
	return report, nil
}

// Export extracts [from, to) as a replayable trace window: every delay
// sample and event, sorted and rebased onto the store's own epoch. The
// caller stamps the Detector/Eta/MinTimeout of the recording monitor.
// Note that a window starting mid-session replays from a cold detector —
// predictor and margin state that accumulated before from is not
// recorded, so bit-exact fidelity holds for windows from session start.
// Nil-safe: a nil store returns ErrDisabled.
func (s *Store) Export(from, to time.Duration, peer string) (*trace.Window, error) {
	if s == nil {
		return nil, ErrDisabled
	}
	to = s.resolveTo(to)
	if to <= from {
		return nil, fmt.Errorf("store: empty window [%v, %v)", from, to)
	}
	w := &trace.Window{From: from, To: to}
	events, err := s.collectWindow(from, to, peer, func(pname string, rec Record, send, recv time.Duration) {
		w.Samples = append(w.Samples, trace.Sample{Peer: pname, Seq: rec.Seq, Send: send, Recv: recv})
	})
	if err != nil {
		return nil, err
	}
	// Events from before the window set up open intervals for Query, but
	// an exported window replays standalone: keep [from, to) only.
	for _, e := range events {
		if e.At >= from {
			w.Events = append(w.Events, e)
		}
	}
	sort.SliceStable(w.Samples, func(i, j int) bool { return w.Samples[i].Recv < w.Samples[j].Recv })
	return w, nil
}

// peerName resolves an interned id against the scanned dictionary,
// falling back to a synthesized name if a definition record was lost.
func peerName(dict map[uint32]string, id uint32) string {
	if name, ok := dict[id]; ok && name != "" {
		return name
	}
	return fmt.Sprintf("peer-%d", id)
}
