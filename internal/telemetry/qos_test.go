package telemetry

import (
	"io"
	"math"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"wanfd/internal/nekostat"
)

func TestEventRingEviction(t *testing.T) {
	r := NewEventRing(3)
	for i := 0; i < 5; i++ {
		r.Record(nekostat.Event{Kind: nekostat.KindStartSuspect, At: time.Duration(i), Source: "p"})
	}
	if r.Total() != 5 {
		t.Fatalf("total = %d, want 5", r.Total())
	}
	evs := r.Events()
	if len(evs) != 3 {
		t.Fatalf("buffered = %d, want 3", len(evs))
	}
	for i, e := range evs {
		if want := time.Duration(i + 2); e.At != want {
			t.Errorf("event %d at %v, want %v (oldest-first)", i, e.At, want)
		}
	}
	if last := r.Last(2); len(last) != 2 || last[1].At != 4 {
		t.Errorf("Last(2) = %v", last)
	}
}

func TestEventRingJSONLRoundTrip(t *testing.T) {
	r := NewEventRing(8)
	r.Record(nekostat.Event{Kind: nekostat.KindStartSuspect, At: time.Second, Source: "alpha"})
	r.Record(nekostat.Event{Kind: nekostat.KindEndSuspect, At: 2 * time.Second, Source: "alpha"})
	var b strings.Builder
	if err := r.WriteJSONL(&b, 0); err != nil {
		t.Fatal(err)
	}
	got, err := nekostat.ReadEvents(strings.NewReader(b.String()))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0].Kind != nekostat.KindStartSuspect || got[1].At != 2*time.Second {
		t.Fatalf("round trip = %+v", got)
	}
}

// collectBundle registers a per-peer collector writing one bundle's
// sample, as a monitor's writes each member's.
func collectBundle(r *Registry, peer string, m *DetectorMetrics) {
	r.CollectPeers(func() []PeerSample {
		p := PeerSample{Peer: peer}
		m.Sample(&p)
		return []PeerSample{p}
	})
}

// TestTransitionUpdatesRegistry feeds one peer's bundle: a transition
// before its window opens reaches only the event ring; inside the window
// each one is counted and accounted.
func TestTransitionUpdatesRegistry(t *testing.T) {
	r := NewRegistry(8)
	a := r.DetectorMetrics("a")
	collectBundle(r, "a", a)
	// Outside a window a transition is recorded, not counted or accounted.
	a.Transition(true, 5*time.Second)
	if _, ok := a.Window(); ok {
		t.Fatal("accountant before OpenQoS")
	}
	a.OpenQoS(6 * time.Second)
	a.Transition(true, 10*time.Second)
	a.Transition(false, 12*time.Second)
	a.Transition(true, 30*time.Second)
	a.Transition(false, 32*time.Second)

	if n := r.Events().Total(); n != 5 {
		t.Errorf("ring total = %d, want 5", n)
	}
	q, ok := a.Window()
	if !ok || q.Mistakes != 2 || q.Recurrences != 1 || math.Abs(q.PA(32*time.Second)-0.9) > 1e-12 {
		t.Errorf("QoS peer = %+v ok=%v, want 2 mistakes, 1 recurrence, PA 0.9", q, ok)
	}
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		MetricTransitions + `{peer="a"} 4`,
		MetricQoSPA + `{peer="a"} 0.9`,
		MetricQoSTM + `{peer="a"} 2`,
		MetricQoSTMR + `{peer="a"} 20`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q in:\n%s", want, out)
		}
	}
}

// TestTransitionRacesQoSReaders feeds one bundle's transitions while other
// goroutines copy its window, scrape it through a collector, and re-open
// the window: under -race it must be clean, and every QoS copy must be
// whole — a closed mistake count no larger than the suspicions fed so far,
// and no more recurrences than mistakes.
func TestTransitionRacesQoSReaders(t *testing.T) {
	const pairs = 2000
	r := NewRegistry(8)
	a := r.DetectorMetrics("a")
	a.OpenQoS(0)
	collectBundle(r, "a", a)
	var fed atomic.Int64 // suspicions whose trust has been or is being fed
	done := make(chan struct{})
	var wg sync.WaitGroup
	loop := func(f func(i int)) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-done:
					return
				default:
				}
				f(i)
			}
		}()
	}
	loop(func(int) {
		q, ok := a.Window()
		// Loaded after the copy: a mistake in it was fed, and counted,
		// before it.
		if limit := fed.Load(); ok {
			if int64(q.Mistakes) > limit || q.Recurrences > q.Mistakes || (q.Mistakes == 0 && q.TMSum != 0) {
				t.Errorf("inconsistent QoS copy %+v after %d completed suspicions", q, limit)
			}
		}
	})
	loop(func(int) {
		if err := r.WritePrometheus(io.Discard); err != nil {
			t.Error(err)
		}
	})
	loop(func(i int) {
		a.OpenQoS(time.Duration(i) * time.Millisecond)
	})
	for i := 1; i <= pairs; i++ {
		at := time.Duration(i) * time.Millisecond
		a.Transition(true, at)
		fed.Add(1)
		a.Transition(false, at+time.Microsecond)
	}
	close(done)
	wg.Wait()
	if n := r.Events().Total(); n != 2*pairs {
		t.Errorf("ring total = %d, want %d", n, 2*pairs)
	}
}
