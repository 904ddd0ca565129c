package nekostat

import (
	"fmt"
	"time"

	"wanfd/internal/stats"
)

// QoS aggregates the paper's failure-detector QoS metrics for one detector
// over one experiment run. All duration statistics are in milliseconds, the
// unit of the paper's figures.
type QoS struct {
	// Detector names the predictor+margin combination.
	Detector string

	// TD summarizes the detection times (one sample per detected crash).
	TD stats.Summary
	// TDU is the maximum observed detection time (the paper's T_D^U).
	TDU float64
	// TM summarizes mistake durations.
	TM stats.Summary
	// TMR summarizes mistake recurrence times.
	TMR stats.Summary
	// PA is the query accuracy probability: (mean T_MR − mean T_M) /
	// mean T_MR as the paper derives it, or PATimeline when no recurrence
	// exists or that value is negative; 1 with no mistake.
	PA float64
	// PATimeline is the fraction of process-up time during which the
	// detector's output was correct, measured directly on the timeline
	// (an availability-style cross-check of PA).
	PATimeline float64

	// Crashes, Detected and Missed count injected crashes, crashes whose
	// restore instant was covered by a suspicion (permanently detected),
	// and the rest.
	Crashes, Detected, Missed int
	// Mistakes counts false-suspicion episodes while the process was up.
	Mistakes int

	// RawTD, RawTM and RawTMR hold the individual samples (ms) behind the
	// summaries, so several experiment runs can be merged sample-exactly.
	RawTD, RawTM, RawTMR []float64

	// UpTime and MistakeTime are the timeline totals behind PATimeline.
	UpTime, MistakeTime time.Duration
}

// ComputeQoS derives the QoS metrics of one detector from its suspicion
// intervals and the injected crash intervals, over the observation window
// [windowStart, windowEnd].
//
// Conventions (matching §2.1 of the paper and Chen et al.):
//
//   - The "permanent" suspicion for a crash is the suspicion interval that
//     is still active at the restore instant — with a push detector, only a
//     post-restore heartbeat can end it. T_D is its start minus the crash
//     instant, clamped at 0 if the detector was already (mistakenly)
//     suspecting when the crash happened.
//   - A suspicion interval overlapping any crash period belongs to
//     detection; every other interval is a mistake. T_M is its duration.
//   - T_MR is the gap between consecutive mistake starts with no crash in
//     between.
//   - Open intervals at the window end are not counted as mistakes (their
//     duration is unknown); an interval that ends after windowEnd is still
//     open at it.
//
// crashes are in time order, as CrashIntervals returns them.
func ComputeQoS(detector string, suspicions, crashes []Interval, windowStart, windowEnd time.Duration) (QoS, error) {
	if windowEnd <= windowStart {
		return QoS{}, fmt.Errorf("nekostat: empty window [%v, %v]", windowStart, windowEnd)
	}
	// Intervals entirely before the window (bootstrap transients) are out
	// of scope.
	suspicions = dropBefore(suspicions, windowStart)
	crashes = dropBefore(crashes, windowStart)
	q := QoS{Detector: detector, Crashes: len(crashes)}

	// Detection times.
	var tds []float64
	for _, cr := range crashes {
		if cr.Open {
			// Crash not restored within the window: detection cannot be
			// classified as permanent.
			q.Crashes--
			continue
		}
		detected := false
		for _, s := range suspicions {
			if s.Covers(cr.End) && s.Start <= cr.End {
				td := s.Start - cr.Start
				if td < 0 {
					td = 0
				}
				tds = append(tds, durToMs(td))
				detected = true
				break
			}
		}
		if detected {
			q.Detected++
		} else {
			q.Missed++
		}
	}
	if len(tds) > 0 {
		sum, err := stats.Summarize(tds)
		if err != nil {
			return QoS{}, err
		}
		q.TD = sum
		q.TDU = sum.Max
	}

	// Mistakes: the closed suspicion intervals inside the window that
	// overlap no crash period, counted through the one accountant with the
	// crashes fed in time order, so a crash between two mistakes breaks
	// their recurrence. The raw samples are the accountant's increments.
	acc := Accountant{From: windowStart}
	var tms, tmrs []float64
	fed := 0
	for _, s := range suspicions {
		if s.Open || s.End < s.Start || s.End > windowEnd || overlapsAny(s, crashes) {
			continue
		}
		for ; fed < len(crashes) && crashes[fed].Start <= s.Start; fed++ {
			acc.Crash(crashes[fed].Start)
		}
		prev := acc
		acc.OnSuspect(detector, s.Start)
		acc.OnTrust(detector, s.End)
		tms = append(tms, durToMs(acc.TMSum-prev.TMSum))
		if acc.Recurrences > prev.Recurrences {
			tmrs = append(tmrs, durToMs(acc.TMRSum-prev.TMRSum))
		}
	}
	q.Mistakes = acc.Mistakes
	if len(tms) > 0 {
		sum, err := stats.Summarize(tms)
		if err != nil {
			return QoS{}, err
		}
		q.TM = sum
	}
	if len(tmrs) > 0 {
		sum, err := stats.Summarize(tmrs)
		if err != nil {
			return QoS{}, err
		}
		q.TMR = sum
	}

	// P_A over the up time: the window less every crash period.
	upTime := windowEnd - windowStart
	for _, cr := range crashes {
		upTime -= clampSpan(cr, windowStart, windowEnd)
	}
	q.PA, q.PATimeline = accuracy(q.TM.Mean, q.TMR.Mean, q.TMR.N, q.Mistakes, acc.MistakeTime, upTime)
	q.RawTD, q.RawTM, q.RawTMR = tds, tms, tmrs
	q.UpTime, q.MistakeTime = upTime, acc.MistakeTime
	return q, nil
}

// MergeQoS combines the QoS of the same detector across several runs by
// pooling the raw samples — the paper's 13 experiment runs are reported as
// one set of per-detector values.
func MergeQoS(runs []QoS) (QoS, error) {
	if len(runs) == 0 {
		return QoS{}, fmt.Errorf("nekostat: no runs to merge")
	}
	m := QoS{Detector: runs[0].Detector}
	for _, r := range runs {
		if r.Detector != m.Detector {
			return QoS{}, fmt.Errorf("nekostat: merging %q with %q", m.Detector, r.Detector)
		}
		m.Crashes += r.Crashes
		m.Detected += r.Detected
		m.Missed += r.Missed
		m.Mistakes += r.Mistakes
		m.RawTD = append(m.RawTD, r.RawTD...)
		m.RawTM = append(m.RawTM, r.RawTM...)
		m.RawTMR = append(m.RawTMR, r.RawTMR...)
		m.UpTime += r.UpTime
		m.MistakeTime += r.MistakeTime
	}
	if len(m.RawTD) > 0 {
		sum, err := stats.Summarize(m.RawTD)
		if err != nil {
			return QoS{}, err
		}
		m.TD = sum
		m.TDU = sum.Max
	}
	if len(m.RawTM) > 0 {
		sum, err := stats.Summarize(m.RawTM)
		if err != nil {
			return QoS{}, err
		}
		m.TM = sum
	}
	if len(m.RawTMR) > 0 {
		sum, err := stats.Summarize(m.RawTMR)
		if err != nil {
			return QoS{}, err
		}
		m.TMR = sum
	}
	m.PA, m.PATimeline = accuracy(m.TM.Mean, m.TMR.Mean, m.TMR.N, m.Mistakes, m.MistakeTime, m.UpTime)
	return m, nil
}

// overlapsAny reports whether s belongs to detection: it overlaps a crash
// period or covers a restore instant.
func overlapsAny(s Interval, crashes []Interval) bool {
	for _, cr := range crashes {
		if s.Overlaps(cr) || s.Covers(cr.End) {
			return true
		}
	}
	return false
}

// dropBefore removes intervals that end before t.
func dropBefore(ivs []Interval, t time.Duration) []Interval {
	if t <= 0 {
		return ivs
	}
	out := make([]Interval, 0, len(ivs))
	for _, iv := range ivs {
		if iv.End >= t {
			out = append(out, iv)
		}
	}
	return out
}

// clampSpan returns the portion of iv inside [lo, hi].
func clampSpan(iv Interval, lo, hi time.Duration) time.Duration {
	s, e := iv.Start, iv.End
	if s < lo {
		s = lo
	}
	if e > hi {
		e = hi
	}
	if e <= s {
		return 0
	}
	return e - s
}

// QoSFromEvents is a convenience wrapper extracting a detector's intervals
// from a collector's sorted event list and computing its QoS.
func QoSFromEvents(events []Event, detector string, windowStart, windowEnd time.Duration) (QoS, error) {
	susp := SuspicionIntervals(events, detector, windowEnd)
	crashes := CrashIntervals(events, windowEnd)
	return ComputeQoS(detector, susp, crashes, windowStart, windowEnd)
}

// Accountant is the paper's accuracy accounting in incremental form, the
// one every caller counts through: ComputeQoS, the live telemetry gauges
// and trace replay. It takes one detector's suspect and trust stamps in
// order, as a core.SuspicionListener, and keeps the open suspicion, the
// mistake and recurrence counts and the T_M and T_MR sums:
//
//   - A trust with no open suspicion closes nothing, and neither does a
//     trust stamped before the open suspicion's start (the time-sorted
//     batch view orders it before the suspicion).
//   - An open suspicion is not a mistake.
//   - A crash between two mistake starts breaks their recurrence.
//
// The observation window opens at From. The struct is comparable: two
// accountants fed one stream compare equal.
type Accountant struct {
	// From opens the observation window.
	From time.Duration
	// Mistakes counts closed mistakes; Recurrences counts the T_MR
	// samples between consecutive ones.
	Mistakes, Recurrences int
	// TMSum and TMRSum sum the mistake durations and recurrence times;
	// MistakeTime is the part of the mistakes after From.
	TMSum, TMRSum, MistakeTime time.Duration

	open    bool
	openAt  time.Duration // start of the open suspicion
	last    time.Duration // start of the latest mistake
	crashed bool
	crashAt time.Duration // start of the latest crash
}

// OnSuspect opens a suspicion at at; one already open stays as it is.
func (a *Accountant) OnSuspect(_ string, at time.Duration) {
	if !a.open {
		a.open, a.openAt = true, at
	}
}

// OnTrust closes the open suspicion at at as a mistake.
func (a *Accountant) OnTrust(_ string, at time.Duration) {
	if !a.open || at < a.openAt {
		return
	}
	a.open = false
	if a.Mistakes > 0 && !(a.crashed && a.crashAt >= a.last) {
		a.Recurrences++
		a.TMRSum += a.openAt - a.last
	}
	a.Mistakes++
	a.last = a.openAt
	a.TMSum += at - a.openAt
	a.MistakeTime += clampSpan(Interval{Start: a.openAt, End: at}, a.From, at)
}

// Crash records a crash starting at at. Crashes come in time order with
// the suspicions, each before the suspicions that start after it.
func (a *Accountant) Crash(at time.Duration) {
	if !a.crashed || at > a.crashAt {
		a.crashed, a.crashAt = true, at
	}
}

// Suspected reports whether a suspicion is open.
func (a *Accountant) Suspected() bool { return a.open }

// Means returns E[T_M] and E[T_MR] in seconds, each 0 before its first
// sample.
func (a *Accountant) Means() (tm, tmr float64) {
	if a.Mistakes > 0 {
		tm = a.TMSum.Seconds() / float64(a.Mistakes)
	}
	if a.Recurrences > 0 {
		tmr = a.TMRSum.Seconds() / float64(a.Recurrences)
	}
	return tm, tmr
}

// PA is the query accuracy probability over the window [From, end].
func (a *Accountant) PA(end time.Duration) float64 {
	tm, tmr := a.Means()
	pa, _ := accuracy(tm, tmr, a.Recurrences, a.Mistakes, a.MistakeTime, end-a.From)
	return pa
}

// accuracy is the one P_A rule. P_A is (E[T_MR] − E[T_M]) / E[T_MR] when a
// recurrence exists and that value is not negative; otherwise it is the
// timeline measure, 1 − mistake time / observed time, also returned; with
// no mistake it is 1. tm and tmr share one unit. Mistakes do not overlap
// and lie inside the observed time, so P_A is in [0, 1].
func accuracy(tm, tmr float64, recurrences, mistakes int, mistakeTime, observed time.Duration) (pa, timeline float64) {
	if observed > 0 {
		timeline = 1 - float64(mistakeTime)/float64(observed)
	}
	if mistakes == 0 {
		return 1, timeline
	}
	if pa, ok := FormulaPA(tm, tmr); recurrences > 0 && ok {
		return pa, timeline
	}
	return timeline, timeline
}

// FormulaPA is the paper's derivation of P_A from the two accuracy
// metrics, (E[T_MR] − E[T_M]) / E[T_MR]: the one place the tree computes
// it, measured or predicted. ok reports whether the value is a probability:
// E[T_MR] > 0 and the value is not negative (E[T_M] ≥ 0 bounds it by 1).
func FormulaPA(tm, tmr float64) (pa float64, ok bool) {
	pa = (tmr - tm) / tmr
	return pa, tmr > 0 && pa >= 0
}

func durToMs(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
