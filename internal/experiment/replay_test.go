package experiment

import (
	"bytes"
	"testing"
	"time"

	"wanfd/internal/core"
	"wanfd/internal/sim"
	"wanfd/internal/store"
	"wanfd/internal/telemetry"
	"wanfd/internal/trace"
)

// replaySchedule is the deterministic heartbeat stream shared by the
// fidelity tests: η = 1 s with a sawtooth base delay and a periodic 2.5 s
// spike that provokes genuine false suspicions (the spiked heartbeat also
// arrives after its successors — the stale-heartbeat path).
func replaySchedule(n int) (sends, recvs []time.Duration) {
	for i := 0; i < n; i++ {
		send := time.Duration(i) * time.Second
		delay := 80*time.Millisecond + time.Duration(i%13)*5*time.Millisecond
		if i%67 == 33 {
			delay = 2500 * time.Millisecond
		}
		sends = append(sends, send)
		recvs = append(recvs, send+delay)
	}
	return sends, recvs
}

// TestReplayWindowBitExact is the end-to-end fidelity pin: a live detector
// runs on a virtual-time engine with a durable store attached, the session
// is exported as a trace window, round-tripped through the binary codec,
// and replayed through the full 30-combination grid. The grid member
// matching the live configuration must reproduce the live bundle's QoS
// accountant bit for bit, and the recorded suspicion events must imply the
// same accountant.
func TestReplayWindowBitExact(t *testing.T) {
	const (
		n       = 400
		peer    = "tokyo"
		eta     = time.Second
		minTO   = 10 * time.Millisecond
		horizon = (n + 2) * time.Second
	)
	combo := core.Combo{Predictor: "LAST", Margin: "JAC_med"}

	eng := sim.NewEngine()
	st, err := store.Open(store.Config{Dir: t.TempDir(), SegmentBytes: 2048, Clock: eng})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer st.Close()
	rec := st.Recorder(peer)
	// The monitor publishes the peer at 0: its accuracy window opens there.
	reg := telemetry.NewRegistry(0)
	live := reg.DetectorMetrics(peer)
	live.OpenQoS(0)

	pred, margin, err := combo.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	det, err := core.NewDetector(core.DetectorConfig{
		Name:       combo.Name(),
		Predictor:  pred,
		Margin:     margin,
		Eta:        eta,
		Clock:      eng,
		MinTimeout: minTO,
		Metrics:    live,
		Sample:     rec,
	})
	if err != nil {
		t.Fatalf("NewDetector: %v", err)
	}
	sends, recvs := replaySchedule(n)
	for i := range sends {
		i := i
		eng.At(recvs[i], func() { det.OnHeartbeat(int64(i), sends[i], recvs[i]) })
	}
	if err := eng.Run(horizon); err != nil {
		t.Fatalf("Run: %v", err)
	}
	det.Stop()

	liveQ, ok := live.Window()
	if !ok {
		t.Fatal("the live bundle has no open accuracy window")
	}
	if liveQ.Mistakes == 0 {
		t.Fatal("schedule produced no mistakes; the fidelity check would be vacuous")
	}

	w, err := st.Export(0, horizon, "")
	if err != nil {
		t.Fatalf("Export: %v", err)
	}
	w.Detector, w.Eta, w.MinTimeout = combo.Name(), eta, minTO
	if len(w.Samples) != n {
		t.Fatalf("exported %d samples, want %d", len(w.Samples), n)
	}

	// The window travels through the wire format, as it would via
	// GET /export | wanfd replay.
	var buf bytes.Buffer
	if err := trace.WriteWindow(&buf, w); err != nil {
		t.Fatalf("WriteWindow: %v", err)
	}
	w2, err := trace.ReadWindow(&buf)
	if err != nil {
		t.Fatalf("ReadWindow: %v", err)
	}

	res, err := ReplayWindow(w2, ReplayConfig{})
	if err != nil {
		t.Fatalf("ReplayWindow: %v", err)
	}
	if res.Peer != peer || res.Detector != combo.Name() || res.Samples != n {
		t.Fatalf("replay header = (%q, %q, %d), want (%q, %q, %d)",
			res.Peer, res.Detector, res.Samples, peer, combo.Name(), n)
	}
	if len(res.Order) != len(core.AllCombos()) {
		t.Fatalf("replayed %d combinations, want the full grid of %d", len(res.Order), len(core.AllCombos()))
	}
	if res.Recorded != liveQ {
		t.Errorf("recorded QoS diverges from the live registry:\nrecorded %+v\nlive     %+v", res.Recorded, liveQ)
	}
	got, ok := res.Replayed[combo.Name()]
	if !ok {
		t.Fatalf("grid result missing the live combination %q", combo.Name())
	}
	if got != liveQ {
		t.Errorf("replayed QoS diverges from the live run:\nreplayed %+v\nlive     %+v", got, liveQ)
	}
	// Replays are deterministic: a second pass is identical across the
	// whole grid.
	res2, err := ReplayWindow(w2, ReplayConfig{})
	if err != nil {
		t.Fatalf("ReplayWindow (second pass): %v", err)
	}
	for name, q := range res.Replayed {
		if res2.Replayed[name] != q {
			t.Errorf("replay of %s not deterministic:\nfirst  %+v\nsecond %+v", name, q, res2.Replayed[name])
		}
	}
}

func TestReplayWindowPeerSelection(t *testing.T) {
	w := &trace.Window{
		From: 0, To: 10 * time.Second, Eta: time.Second,
		Samples: []trace.Sample{
			{Peer: "a", Seq: 0, Send: 0, Recv: 100 * time.Millisecond},
			{Peer: "b", Seq: 0, Send: 0, Recv: 120 * time.Millisecond},
		},
	}
	if _, err := ReplayWindow(w, ReplayConfig{}); err == nil {
		t.Error("ambiguous multi-peer window: want an error without ReplayConfig.Peer")
	}
	if _, err := ReplayWindow(w, ReplayConfig{Peer: "c"}); err == nil {
		t.Error("unknown peer: want an error")
	}
	res, err := ReplayWindow(w, ReplayConfig{Peer: "b", Combos: []core.Combo{{Predictor: "LAST", Margin: "JAC_med"}}})
	if err != nil {
		t.Fatalf("ReplayWindow: %v", err)
	}
	if res.Peer != "b" || res.Samples != 1 {
		t.Errorf("selected (%q, %d samples), want (\"b\", 1)", res.Peer, res.Samples)
	}
	if _, err := ReplayWindow(nil, ReplayConfig{}); err == nil {
		t.Error("nil window: want an error")
	}
	if _, err := ReplayWindow(&trace.Window{To: time.Second, Eta: time.Second}, ReplayConfig{}); err == nil {
		t.Error("empty window: want an error")
	}
}
