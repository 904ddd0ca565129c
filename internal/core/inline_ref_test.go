package core

import (
	"fmt"
	"math"
	"testing"
	"time"

	"wanfd/internal/sim"
	"wanfd/internal/stats"
)

// The reference predictors and margins below are the paper's fixed-size
// kinds as they stood as heap objects of their own, before their state
// moved into the Detector: kept, unchanged in behaviour, as the oracle
// TestInlineStateMatchesReference holds the inline state and the exported
// wrappers to.

type refLast struct{ last float64 }

func (*refLast) Name() string              { return "LAST" }
func (p *refLast) Observe(delayMs float64) { p.last = delayMs }
func (p *refLast) Predict() float64        { return p.last }

type refMean struct{ r stats.Running }

func (*refMean) Name() string              { return "MEAN" }
func (p *refMean) Observe(delayMs float64) { p.r.Add(delayMs) }
func (p *refMean) Predict() float64        { return p.r.Mean() }

type refLPF struct {
	beta, pred float64
	primed     bool
}

func (*refLPF) Name() string { return "LPF" }
func (p *refLPF) Observe(delayMs float64) {
	if !p.primed {
		p.pred, p.primed = delayMs, true
		return
	}
	p.pred += p.beta * (delayMs - p.pred)
}
func (p *refLPF) Predict() float64 { return p.pred }

type refSMCI struct {
	name  string
	gamma float64
	r     stats.Running
	last  float64
}

func (m *refSMCI) Name() string { return m.name }
func (m *refSMCI) Observe(obsMs, _ float64) {
	m.r.Add(obsMs)
	m.last = obsMs
}
func (m *refSMCI) Margin() float64 {
	n := m.r.N()
	if n < 2 {
		return 0
	}
	term := 1 + 1/float64(n)
	if ss := m.r.SumSqDev(); ss > 0 {
		d := m.last - m.r.Mean()
		term += d * d / ss
	}
	return m.gamma * m.r.StdDev() * math.Sqrt(term)
}

type refSMJAC struct {
	name          string
	phi, alpha, v float64
}

func (m *refSMJAC) Name() string { return m.name }
func (m *refSMJAC) Observe(obsMs, predMs float64) {
	err := math.Abs(obsMs - predMs)
	m.v += m.alpha * (err - m.v)
}
func (m *refSMJAC) Margin() float64 { return m.phi * m.v }

type refConst struct{ ms float64 }

func (*refConst) Name() string             { return "CONST" }
func (*refConst) Observe(float64, float64) {}
func (m *refConst) Margin() float64        { return m.ms }

// inlineConstMs is the constant margin the differential test uses: large
// enough that jitter alone rarely suspects, small beside the silences.
const inlineConstMs = 35

// inlinePredictors and inlineMargins are the kinds a Detector keeps in its
// own record; "CONST" stands for a constant margin of inlineConstMs.
var (
	inlinePredictors = []string{"LAST", "MEAN", "LPF"}
	inlineMargins    = []string{"CI_low", "CI_med", "CI_high", "JAC_low", "JAC_med", "JAC_high", "CONST"}
)

func newRefPredictor(name string) Predictor {
	switch name {
	case "LAST":
		return &refLast{}
	case "MEAN":
		return &refMean{}
	case "LPF":
		return &refLPF{beta: LPFBeta}
	}
	panic(name)
}

func newRefMargin(name string) SafetyMargin {
	switch name {
	case "CI_low":
		return &refSMCI{name: name, gamma: GammaLow}
	case "CI_med":
		return &refSMCI{name: name, gamma: GammaMed}
	case "CI_high":
		return &refSMCI{name: name, gamma: GammaHigh}
	case "JAC_low":
		return &refSMJAC{name: name, phi: PhiLow, alpha: JacobsonAlpha}
	case "JAC_med":
		return &refSMJAC{name: name, phi: PhiMed, alpha: JacobsonAlpha}
	case "JAC_high":
		return &refSMJAC{name: name, phi: PhiHigh, alpha: JacobsonAlpha}
	case "CONST":
		return &refConst{ms: inlineConstMs}
	}
	panic(name)
}

// stateForTest reads the predictor's forecast, the margin and the freshness
// point under the detector's lock.
func (d *Detector) stateForTest() (predMs, marginMs float64, deadline time.Duration) {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.predictLocked(), d.marginLocked(), d.deadline
}

// genDelaySchedule turns bytes into a delivery schedule of n heartbeats at
// η = 100 ms over a delay process of 20 ms plus jitter: delay spikes,
// reordered and duplicated sequence numbers, lost heartbeats, sender
// silences long enough to suspect at any margin, and receive stamps taken
// before delivery. Engine instants never go backwards. The bytes make the
// first decisions; a generator seeded from them makes the rest, as in
// genAccrualSchedule.
func genDelaySchedule(data []byte, n int) []accrualStep {
	x := uint64(0xcbf29ce484222325)
	for _, b := range data {
		x = (x ^ uint64(b)) * 0x100000001b3
	}
	pos := 0
	next := func() byte {
		if pos < len(data) {
			pos++
			return data[pos-1]
		}
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		return byte(x >> 56)
	}
	const eta = 100 * time.Millisecond
	steps := make([]accrualStep, 0, n)
	var seq int64
	var prev time.Duration
	deliverAt := func(s int64, delay time.Duration, early bool) {
		send := time.Duration(s) * eta
		at := max(send+delay, prev)
		stamp := at
		if early {
			// Stamped before delivery, but never before the previous
			// delivery's engine instant.
			if back := time.Duration(next()%20) * time.Millisecond; at-back > prev {
				stamp = at - back
			}
		}
		steps = append(steps, accrualStep{s, send, at, stamp})
		prev = at
	}
	for len(steps) < n {
		b := next()
		delay := 20*time.Millisecond + time.Duration(next())*40*time.Microsecond
		switch op := b % 32; {
		case op == 0: // the sender falls silent
			seq += int64(2 + next()%40)
		case op == 1 && seq > 3: // reorder: an older sequence number arrives
			s := seq - 1 - int64(next()%3)
			deliverAt(s, delay+time.Duration(next())*time.Millisecond, false)
			continue
		case op == 2 && seq > 0: // duplicate of the freshest heartbeat
			deliverAt(seq-1, delay+time.Duration(next()%30)*time.Millisecond, false)
			continue
		case op == 3: // lost heartbeats
			seq += int64(1 + next()%5)
		case op == 4: // delay spike
			delay += time.Duration(next()) * 2 * time.Millisecond
		}
		deliverAt(seq, delay, b&0x80 != 0)
		seq++
	}
	return steps
}

// inlineDetector builds the combination's detector as the monitor does, by
// name with its state inline, in place over a detector that has already
// served another combination, so Init must reset every word of it.
func inlineDetector(t testing.TB, eng *sim.Engine, pred, margin string, l SuspicionListener) *Detector {
	t.Helper()
	d := new(Detector)
	if err := d.Init(DetectorConfig{Combo: Combo{"LPF", "CI_high"}, Eta: time.Second, Clock: eng}); err != nil {
		t.Fatal(err)
	}
	d.OnHeartbeat(1, 0, 30*time.Millisecond)
	d.OnHeartbeat(2, time.Second, time.Second+70*time.Millisecond)
	d.Stop()
	cfg := DetectorConfig{Combo: Combo{Predictor: pred, Margin: margin}, Eta: 100 * time.Millisecond, Clock: eng, Listener: l}
	if margin == "CONST" {
		m, err := NewConstantMargin("", inlineConstMs)
		if err != nil {
			t.Fatal(err)
		}
		cfg.Margin = m
	}
	if err := d.Init(cfg); err != nil {
		t.Fatal(err)
	}
	if d.pk < predLast || d.mk == marginExt || d.ext != nil {
		t.Fatalf("%s+%s: kinds %d/%d, ext %v: not inline", pred, margin, d.pk, d.mk, d.ext)
	}
	return d
}

// objectDetector builds the combination's detector from objects: the
// exported wrappers (NewPredictorByName, NewMarginByName) or the
// references, both kept behind the detector's pointer.
func objectDetector(t testing.TB, eng *sim.Engine, p Predictor, m SafetyMargin, l SuspicionListener) *Detector {
	t.Helper()
	d, err := NewDetector(DetectorConfig{Predictor: p, Margin: m, Eta: 100 * time.Millisecond, Clock: eng, Listener: l})
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// checkInlineMatchesReference runs one combination three ways side by side
// on one engine over one schedule — inline state, exported wrappers and
// references — and fails on the first difference in the forecast's or the
// margin's bits, a freshness point, a transition or a counter.
func checkInlineMatchesReference(t *testing.T, pred, margin string, steps []accrualStep) DetectorStats {
	t.Helper()
	eng := sim.NewEngine()
	var refLog, wrapLog, inlineLog recordingListener
	ref := objectDetector(t, eng, newRefPredictor(pred), newRefMargin(margin), &refLog)
	wp, err := NewPredictorByName(pred)
	if err != nil {
		t.Fatal(err)
	}
	var wm SafetyMargin
	if margin == "CONST" {
		wm, err = NewConstantMargin("", inlineConstMs)
	} else {
		wm, err = NewMarginByName(margin)
	}
	if err != nil {
		t.Fatal(err)
	}
	wrap := objectDetector(t, eng, wp, wm, &wrapLog)
	inline := inlineDetector(t, eng, pred, margin, &inlineLog)
	name := pred + "+" + margin
	failed := false
	for i, s := range steps {
		eng.At(s.at, func() {
			if failed {
				return
			}
			ref.OnHeartbeat(s.seq, s.send, s.stamp)
			wrap.OnHeartbeat(s.seq, s.send, s.stamp)
			inline.OnHeartbeat(s.seq, s.send, s.stamp)
			rp, rm, rd := ref.stateForTest()
			for _, c := range []struct {
				what string
				d    *Detector
			}{{"wrapper", wrap}, {"inline", inline}} {
				p, m, dl := c.d.stateForTest()
				if math.Float64bits(p) != math.Float64bits(rp) || math.Float64bits(m) != math.Float64bits(rm) || dl != rd {
					t.Errorf("%s: %s after step %d %+v: pred %v margin %v freshness point %v, reference %v %v %v",
						name, c.what, i, s, p, m, dl, rp, rm, rd)
					failed = true
				}
			}
		})
	}
	if err := eng.Run(lastAt(steps) + time.Minute); err != nil {
		t.Fatal(err)
	}
	for _, d := range []*Detector{ref, wrap, inline} {
		d.Stop()
	}
	want := ref.DetectorStats()
	for _, c := range []struct {
		what string
		d    *Detector
		log  *recordingListener
	}{{"wrapper", wrap, &wrapLog}, {"inline", inline, &inlineLog}} {
		if got := c.d.DetectorStats(); got != want {
			t.Errorf("%s: %s stats %+v, reference %+v", name, c.what, got, want)
		}
		if len(c.log.events) != len(refLog.events) {
			t.Errorf("%s: %s made %d transitions, reference %d", name, c.what, len(c.log.events), len(refLog.events))
		}
		for i := range min(len(c.log.events), len(refLog.events)) {
			if c.log.events[i] != refLog.events[i] {
				t.Errorf("%s: %s transition %d = %+v, reference %+v", name, c.what, i, c.log.events[i], refLog.events[i])
				break
			}
		}
	}
	return want
}

// TestInlineStateMatchesReference holds every inline predictor × margin
// pair, and the exported wrappers over the same step functions, to the
// references bit for bit over 20,000 generated heartbeats each.
func TestInlineStateMatchesReference(t *testing.T) {
	for i, pred := range inlinePredictors {
		for j, margin := range inlineMargins {
			t.Run(pred+"+"+margin, func(t *testing.T) {
				st := checkInlineMatchesReference(t, pred, margin, genDelaySchedule([]byte{byte(i), byte(j), 0xa5}, 20_000))
				// The schedule must exercise what it is meant to: stale
				// heartbeats and suspicions for every pair.
				if st.Stale < 500 || st.Suspicions < 100 {
					t.Errorf("schedule too tame: %+v", st)
				}
			})
		}
	}
}

func FuzzInlineStateMatchesReference(f *testing.F) {
	f.Add([]byte{0}, uint8(0))
	f.Add([]byte{4, 4, 4, 1, 2, 0x83, 0x80, 3, 0}, uint8(5))
	f.Add([]byte{1, 1, 1, 1, 0, 2, 2, 2}, uint8(13))
	f.Add([]byte{0x9f, 0x20, 0x41, 0x62}, uint8(20))
	f.Fuzz(func(t *testing.T, data []byte, which uint8) {
		k := int(which) % (len(inlinePredictors) * len(inlineMargins))
		pred, margin := inlinePredictors[k/len(inlineMargins)], inlineMargins[k%len(inlineMargins)]
		checkInlineMatchesReference(t, pred, margin, genDelaySchedule(data, 2000))
	})
}

// TestPaperKindsAreInline pins which kinds a Detector keeps in its own
// record: named through Combo, every margin is inline, and so is every
// predictor but the heap kinds (ARIMA, WINMEAN, MEDIAN), which alone put a
// pair behind the detector's pointer.
func TestPaperKindsAreInline(t *testing.T) {
	eng := sim.NewEngine()
	for _, pred := range append(append([]string(nil), PredictorNames...), ExtendedPredictorNames...) {
		for _, margin := range MarginNames {
			var d Detector
			if err := d.Init(DetectorConfig{Combo: Combo{pred, margin}, Eta: time.Second, Clock: eng}); err != nil {
				t.Fatal(err)
			}
			inline := pred == "LAST" || pred == "MEAN" || pred == "LPF"
			if got := d.ext == nil; got != inline {
				t.Errorf("%s+%s: inline %v, want %v", pred, margin, got, inline)
			}
			if d.mk == marginExt || (d.ext != nil && d.ext.margin != nil) {
				t.Errorf("%s+%s: margin not inline", pred, margin)
			}
			if want := fmt.Sprintf("%s+%s", pred, margin); d.Name() != want {
				t.Errorf("default name %q, want %q", d.Name(), want)
			}
		}
	}
}
