package telemetry

import (
	"math"
	"strings"
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

func TestRecordTransitionUpdatesRegistry(t *testing.T) {
	r := NewRegistry(8)
	// Outside a window a transition is recorded and counted, not accounted.
	r.RecordTransition("a", true, 5*time.Second)
	if _, ok := r.QoS("a"); ok {
		t.Fatal("accountant before OpenQoS")
	}
	r.OpenQoS("a", 6*time.Second)
	r.RecordTransition("a", true, 10*time.Second)
	r.RecordTransition("a", false, 12*time.Second)
	r.RecordTransition("a", true, 30*time.Second)
	r.RecordTransition("a", false, 32*time.Second)

	if n := r.Events().Total(); n != 5 {
		t.Errorf("ring total = %d, want 5", n)
	}
	q, ok := r.QoS("a")
	if !ok || q.Mistakes != 2 || q.Recurrences != 1 || math.Abs(q.PA(32*time.Second)-0.9) > 1e-12 {
		t.Errorf("QoS peer = %+v ok=%v, want 2 mistakes, 1 recurrence, PA 0.9", q, ok)
	}
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		MetricTransitions + `{peer="a"} 5`,
		MetricQoSPA + `{peer="a"} 0.9`,
		MetricQoSTM + `{peer="a"} 2`,
		MetricQoSTMR + `{peer="a"} 20`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q in:\n%s", want, out)
		}
	}
}

func TestCloseQoSForgetsPeer(t *testing.T) {
	r := NewRegistry(8)
	r.OpenQoS("a", 0)
	r.OpenQoS("b", 0)
	r.RecordTransition("a", true, time.Second)
	r.CloseQoS("a")
	if _, ok := r.QoS("a"); ok {
		t.Error("closed peer still accounted")
	}
	if _, ok := r.QoS("b"); !ok {
		t.Error("unrelated peer lost")
	}
	r.OpenQoS("a", 2*time.Second)
	if q, _ := r.QoS("a"); q.From != 2*time.Second || q.Suspected() {
		t.Errorf("re-opened window = %+v, want a fresh one from 2s", q)
	}
}
