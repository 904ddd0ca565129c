package store

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"sync"
	"testing"
	"time"

	"wanfd/internal/trace"
)

func openTest(t *testing.T, dir string, cfg Config) *Store {
	t.Helper()
	cfg.Dir = dir
	s, err := Open(cfg)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

func ms(n int64) time.Duration { return time.Duration(n) * time.Millisecond }

// TestQueryRoundTrip pushes samples, transitions and crash marks through
// the ring and checks the windowed recomputation end to end.
func TestQueryRoundTrip(t *testing.T) {
	s := openTest(t, t.TempDir(), Config{})
	a := s.Recorder("alpha")
	b := s.Recorder("beta")
	// alpha: 10 heartbeats, 100ms apart, 20ms delay; one mistake episode
	// [350ms, 450ms]; another at [650ms, 700ms] (so T_MR exists).
	for i := int64(0); i < 10; i++ {
		send := ms(100 * i)
		a.Sample(i, send, send+ms(20))
	}
	a.Transition(true, ms(350))
	a.Transition(false, ms(450))
	a.Transition(true, ms(650))
	a.Transition(false, ms(700))
	// beta: 5 heartbeats, 30ms delay, no suspicions.
	for i := int64(0); i < 5; i++ {
		send := ms(200 * i)
		b.Sample(i, send, send+ms(30))
	}
	if err := s.Sync(); err != nil {
		t.Fatalf("Sync: %v", err)
	}

	rep, err := s.Query(0, ms(1100), "")
	if err != nil {
		t.Fatalf("Query: %v", err)
	}
	if len(rep.Peers) != 2 {
		t.Fatalf("peers = %d, want 2", len(rep.Peers))
	}
	alpha, beta := rep.Peers[0], rep.Peers[1]
	if alpha.Peer != "alpha" || beta.Peer != "beta" {
		t.Fatalf("peer order = %q, %q", alpha.Peer, beta.Peer)
	}
	if alpha.Samples != 10 || beta.Samples != 5 {
		t.Fatalf("samples = %d/%d, want 10/5", alpha.Samples, beta.Samples)
	}
	if got := alpha.DelayMs.Mean; got != 20 {
		t.Fatalf("alpha mean delay = %v ms, want 20", got)
	}
	if alpha.Suspicions != 2 {
		t.Fatalf("alpha suspicions = %d, want 2", alpha.Suspicions)
	}
	if alpha.QoS.Mistakes != 2 {
		t.Fatalf("alpha mistakes = %d, want 2", alpha.QoS.Mistakes)
	}
	// T_M samples: 100ms and 50ms → mean 75ms. T_MR: 650−350 = 300ms.
	if got := alpha.QoS.TM.Mean; got != 75 {
		t.Fatalf("alpha E[T_M] = %v ms, want 75", got)
	}
	if got := alpha.QoS.TMR.Mean; got != 300 {
		t.Fatalf("alpha E[T_MR] = %v ms, want 300", got)
	}
	if want := (300.0 - 75.0) / 300.0; alpha.QoS.PA != want {
		t.Fatalf("alpha P_A = %v, want %v", alpha.QoS.PA, want)
	}
	if beta.QoS.Mistakes != 0 || beta.QoS.PA != 1 {
		t.Fatalf("beta QoS = %+v, want clean", beta.QoS)
	}

	// Sub-window [400ms, 700ms): only the first mistake's tail and the
	// second's start — the open-ended episodes are not counted, and only
	// heartbeats received inside remain.
	rep, err = s.Query(ms(400), ms(700), "alpha")
	if err != nil {
		t.Fatalf("Query sub-window: %v", err)
	}
	if len(rep.Peers) != 1 {
		t.Fatalf("sub-window peers = %d, want 1 (filtered)", len(rep.Peers))
	}
	// Received in [400, 700): heartbeats sent at 400, 500, 600 (recv 420,
	// 520, 620) plus recv 680 from send 660? No — sends are at 100ms
	// multiples: recv 420, 520, 620.
	if got := rep.Peers[0].Samples; got != 3 {
		t.Fatalf("sub-window samples = %d, want 3", got)
	}
}

// TestCrashMarksClassifyDetection checks ground-truth crash records turn
// suspicions into detections rather than mistakes.
func TestCrashMarksClassifyDetection(t *testing.T) {
	s := openTest(t, t.TempDir(), Config{})
	r := s.Recorder("gamma")
	r.Sample(1, 0, ms(10))
	s.RecordCrash(ms(100))
	r.Transition(true, ms(150)) // detection, 50ms after the crash
	s.RecordRestore(ms(300))
	r.Transition(false, ms(320))
	if err := s.Sync(); err != nil {
		t.Fatalf("Sync: %v", err)
	}
	rep, err := s.Query(0, ms(500), "")
	if err != nil {
		t.Fatalf("Query: %v", err)
	}
	q := rep.Peers[0].QoS
	if q.Crashes != 1 || q.Detected != 1 || q.Missed != 0 || q.Mistakes != 0 {
		t.Fatalf("QoS = %+v, want 1 crash detected with no mistakes", q)
	}
	if q.TD.Mean != 50 {
		t.Fatalf("T_D = %v ms, want 50", q.TD.Mean)
	}
}

// TestReopenContinues closes a store and reopens the same directory: the
// peer dictionary and data survive, and new writes land in a fresh
// segment without clobbering old ones.
func TestReopenContinues(t *testing.T) {
	dir := t.TempDir()
	s := openTest(t, dir, Config{})
	s.Recorder("p").Sample(1, 0, ms(10))
	if err := s.Sync(); err != nil {
		t.Fatalf("Sync: %v", err)
	}
	s.Close()

	s2 := openTest(t, dir, Config{})
	s2.Recorder("p").Sample(2, ms(100), ms(110))
	if err := s2.Sync(); err != nil {
		t.Fatalf("Sync after reopen: %v", err)
	}
	rep, err := s2.Query(0, ms(200), "")
	if err != nil {
		t.Fatalf("Query: %v", err)
	}
	if len(rep.Peers) != 1 || rep.Peers[0].Samples != 2 {
		t.Fatalf("report = %+v, want one peer with both sessions' samples", rep)
	}
}

// TestReopenTruncatesTornTail simulates a crash mid-append: garbage (a
// torn frame) lands past the last synced record. Reopen must drop exactly
// the torn tail and keep every fully synced record.
func TestReopenTruncatesTornTail(t *testing.T) {
	dir := t.TempDir()
	s := openTest(t, dir, Config{})
	r := s.Recorder("p")
	for i := int64(0); i < 20; i++ {
		r.Sample(i, ms(10*i), ms(10*i+5))
	}
	if err := s.Sync(); err != nil {
		t.Fatalf("Sync: %v", err)
	}
	s.Close()

	// Find the newest segment and append a torn frame: a valid length
	// byte promising more payload than follows, then garbage.
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var last string
	for _, e := range ents {
		if _, ok := parseSegName(e.Name()); ok {
			last = filepath.Join(dir, e.Name())
		}
	}
	if last == "" {
		t.Fatal("no segment files written")
	}
	before, err := os.Stat(last)
	if err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(last, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{fixedPayloadLen, byte(recSample), 0xde, 0xad, 0xbe}); err != nil {
		t.Fatal(err)
	}
	f.Close()

	s2 := openTest(t, dir, Config{})
	after, err := os.Stat(last)
	if err != nil {
		t.Fatal(err)
	}
	if after.Size() != before.Size() {
		t.Fatalf("torn tail not truncated: %d bytes, want %d", after.Size(), before.Size())
	}
	rep, err := s2.Query(0, ms(1000), "")
	if err != nil {
		t.Fatalf("Query: %v", err)
	}
	if len(rep.Peers) != 1 || rep.Peers[0].Samples != 20 {
		t.Fatalf("recovered %d samples, want all 20 synced ones", rep.Peers[0].Samples)
	}
}

// TestReopenDropsCorruptMidFrame flips a byte inside a synced frame: the
// CRC must reject it and recovery keeps only the prefix before it.
func TestReopenDropsCorruptMidFrame(t *testing.T) {
	dir := t.TempDir()
	s := openTest(t, dir, Config{})
	r := s.Recorder("p")
	for i := int64(0); i < 10; i++ {
		r.Sample(i, ms(10*i), ms(10*i+5))
	}
	if err := s.Sync(); err != nil {
		t.Fatalf("Sync: %v", err)
	}
	s.Close()

	var seg string
	ents, _ := os.ReadDir(dir)
	for _, e := range ents {
		if _, ok := parseSegName(e.Name()); ok {
			seg = filepath.Join(dir, e.Name())
			break
		}
	}
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	// Corrupt a byte two frames from the end (inside the 9th sample).
	frame := fixedPayloadLen + frameOverhead
	data[len(data)-2*frame+10] ^= 0xff
	if err := os.WriteFile(seg, data, 0o644); err != nil {
		t.Fatal(err)
	}

	s2 := openTest(t, dir, Config{})
	rep, err := s2.Query(0, ms(1000), "")
	if err != nil {
		t.Fatalf("Query: %v", err)
	}
	// Everything after the corrupt frame is unreachable (frame boundaries
	// are lost), so exactly the first 8 samples survive.
	if len(rep.Peers) != 1 || rep.Peers[0].Samples != 8 {
		t.Fatalf("recovered %d samples, want 8", rep.Peers[0].Samples)
	}
}

// TestRetentionBySize bounds total footprint: rolling past MaxBytes must
// retire the oldest segments, never the newest data.
func TestRetentionBySize(t *testing.T) {
	s := openTest(t, t.TempDir(), Config{SegmentBytes: minSegmentBytes, MaxBytes: 4 * minSegmentBytes})
	r := s.Recorder("p")
	for i := int64(0); i < 500; i++ {
		r.Sample(i, ms(10*i), ms(10*i+5))
	}
	if err := s.Sync(); err != nil {
		t.Fatalf("Sync: %v", err)
	}
	st := s.Stats()
	if st.Retired == 0 {
		t.Fatalf("no segments retired: %+v", st)
	}
	if st.Bytes > 5*minSegmentBytes {
		t.Fatalf("footprint %d bytes exceeds bound", st.Bytes)
	}
	rep, err := s.Query(0, ms(6000), "")
	if err != nil {
		t.Fatalf("Query: %v", err)
	}
	if len(rep.Peers) != 1 {
		t.Fatalf("peers = %d, want 1", len(rep.Peers))
	}
	p := rep.Peers[0]
	// The newest sample must have survived retention.
	if p.Samples == 0 || p.Samples == 500 {
		t.Fatalf("samples after retention = %d, want a proper suffix", p.Samples)
	}
	// On-disk segment count matches the stats snapshot.
	ents, _ := os.ReadDir(s.dir)
	n := 0
	for _, e := range ents {
		if _, ok := parseSegName(e.Name()); ok {
			n++
		}
	}
	if n != st.Segments {
		t.Fatalf("segments on disk = %d, stats say %d", n, st.Segments)
	}
}

// TestRetentionByAge expires sealed segments by data age — measured
// against the newest record, with no wall clock involved.
func TestRetentionByAge(t *testing.T) {
	s := openTest(t, t.TempDir(), Config{SegmentBytes: minSegmentBytes, MaxAge: time.Second})
	r := s.Recorder("p")
	// Old era: records around t=0..1s, then a jump to t=100s; every
	// sealed old-era segment is > 1s older than the newest record.
	for i := int64(0); i < 200; i++ {
		r.Sample(i, ms(5*i), ms(5*i+2))
	}
	for i := int64(0); i < 200; i++ {
		at := 100*time.Second + ms(5*i)
		r.Sample(200+i, at, at+ms(2))
	}
	if err := s.Sync(); err != nil {
		t.Fatalf("Sync: %v", err)
	}
	if st := s.Stats(); st.Retired == 0 {
		t.Fatalf("no segments retired by age: %+v", st)
	}
	rep, err := s.Query(0, 200*time.Second, "")
	if err != nil {
		t.Fatalf("Query: %v", err)
	}
	if len(rep.Peers) != 1 {
		t.Fatalf("peers = %d, want 1", len(rep.Peers))
	}
	old := 0
	rep2, err := s.Query(0, time.Second, "")
	if err != nil {
		t.Fatalf("Query old era: %v", err)
	}
	if len(rep2.Peers) == 1 {
		old = rep2.Peers[0].Samples
	}
	if old == 200 {
		t.Fatalf("old era fully retained (%d samples) despite MaxAge", old)
	}
}

// TestExportRoundTrip exports a window, runs it through the binary codec
// and checks losslessness.
func TestExportRoundTrip(t *testing.T) {
	s := openTest(t, t.TempDir(), Config{})
	r := s.Recorder("p")
	for i := int64(0); i < 50; i++ {
		r.Sample(i, ms(20*i), ms(20*i+7))
	}
	r.Transition(true, ms(333))
	r.Transition(false, ms(444))
	s.RecordCrash(ms(600))
	s.RecordRestore(ms(650))
	if err := s.Sync(); err != nil {
		t.Fatalf("Sync: %v", err)
	}
	w, err := s.Export(0, ms(2000), "")
	if err != nil {
		t.Fatalf("Export: %v", err)
	}
	if len(w.Samples) != 50 {
		t.Fatalf("exported %d samples, want 50", len(w.Samples))
	}
	if len(w.Events) != 4 {
		t.Fatalf("exported %d events, want 4", len(w.Events))
	}
	w.Detector = "LAST+JAC_med"
	w.Eta = 100 * time.Millisecond

	var buf bytes.Buffer
	if err := trace.WriteWindow(&buf, w); err != nil {
		t.Fatalf("WriteWindow: %v", err)
	}
	got, err := trace.ReadWindow(&buf)
	if err != nil {
		t.Fatalf("ReadWindow: %v", err)
	}
	if !reflect.DeepEqual(got, w) {
		t.Fatalf("window codec not lossless:\n got %+v\nwant %+v", got, w)
	}
}

// TestConcurrentStress hammers the store from many goroutines (run under
// -race in CI) and checks conservation: every push is either durably
// written or counted as dropped.
func TestConcurrentStress(t *testing.T) {
	s := openTest(t, t.TempDir(), Config{SegmentBytes: 4096, Queue: 1 << 14})
	const writers = 8
	const perWriter = 2000
	var wg sync.WaitGroup
	for wi := 0; wi < writers; wi++ {
		wg.Add(1)
		go func(wi int) {
			defer wg.Done()
			r := s.Recorder(peerNameFor(wi))
			for i := int64(0); i < perWriter; i++ {
				at := ms(int64(wi)*perWriter + i)
				r.Sample(i, at, at+ms(1))
				if i%100 == 0 {
					r.Transition(i%200 == 0, at)
				}
			}
		}(wi)
	}
	wg.Wait()
	if err := s.Sync(); err != nil {
		t.Fatalf("Sync: %v", err)
	}
	st := s.Stats()
	pushed := uint64(writers * (perWriter + perWriter/100))
	if st.Samples+st.Transitions+st.Dropped != pushed {
		t.Fatalf("conservation violated: samples %d + transitions %d + dropped %d != pushed %d",
			st.Samples, st.Transitions, st.Dropped, pushed)
	}
	rep, err := s.Query(0, time.Hour, "")
	if err != nil {
		t.Fatalf("Query: %v", err)
	}
	total := 0
	for _, p := range rep.Peers {
		total += p.Samples
	}
	if uint64(total) != st.Samples {
		t.Fatalf("query found %d samples, stats say %d", total, st.Samples)
	}
}

func peerNameFor(i int) string {
	return string([]byte{'w', byte('0' + i)})
}

// TestZeroAllocPush pins the hot-path contract: at steady state (peer
// defined, segment not rolling) a Sample push allocates nothing — and the
// background writer drains those pushes allocation-free too, since
// AllocsPerRun counts process-global mallocs.
func TestZeroAllocPush(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation accounting is not meaningful under the race detector")
	}
	s := openTest(t, t.TempDir(), Config{Queue: 1 << 15})
	r := s.Recorder("p")
	// Warm up: define the peer in the active segment, size the writer's
	// scratch buffer, then flush.
	for i := int64(0); i < 2000; i++ {
		r.Sample(i, ms(i), ms(i)+ms(1))
	}
	if err := s.Sync(); err != nil {
		t.Fatalf("Sync: %v", err)
	}
	seq := int64(2000)
	allocs := testing.AllocsPerRun(5000, func() {
		r.Sample(seq, ms(seq), ms(seq)+ms(1))
		seq++
	})
	if allocs != 0 {
		t.Fatalf("steady-state Sample push allocates %v per op, want 0", allocs)
	}
}

// TestNilSafety drives the whole exported surface through nil receivers.
func TestNilSafety(t *testing.T) {
	var s *Store
	if s.Recorder("x") != nil {
		t.Fatal("nil store must hand out nil recorders")
	}
	var r *PeerRecorder
	r.Sample(1, 0, ms(1))
	r.Transition(true, ms(1))
	s.RecordCrash(ms(1))
	s.RecordRestore(ms(1))
	if err := s.Sync(); err != nil {
		t.Fatalf("nil Sync: %v", err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("nil Close: %v", err)
	}
	if st := s.Stats(); st.Enabled {
		t.Fatal("nil store reports Enabled")
	}
	if _, err := s.Query(0, ms(1), ""); err != ErrDisabled {
		t.Fatalf("nil Query err = %v, want ErrDisabled", err)
	}
	if _, err := s.Export(0, ms(1), ""); err != ErrDisabled {
		t.Fatalf("nil Export err = %v, want ErrDisabled", err)
	}
	s.Instrument(nil)
}

// TestQueryAfterClose keeps the read path alive once the writer is gone.
func TestQueryAfterClose(t *testing.T) {
	s := openTest(t, t.TempDir(), Config{})
	s.Recorder("p").Sample(1, 0, ms(10))
	s.Close()
	if err := s.Sync(); err != ErrClosed {
		t.Fatalf("Sync after close = %v, want ErrClosed", err)
	}
	rep, err := s.Query(0, ms(100), "")
	if err != nil {
		t.Fatalf("Query after close: %v", err)
	}
	if len(rep.Peers) != 1 || rep.Peers[0].Samples != 1 {
		t.Fatalf("report after close = %+v", rep)
	}
}

// TestOpenSuspicionSpansSegments checks the window machinery keeps
// suspicion state across segment boundaries: a start in one segment and
// the end two segments later still form one interval.
func TestOpenSuspicionSpansSegments(t *testing.T) {
	s := openTest(t, t.TempDir(), Config{SegmentBytes: minSegmentBytes})
	r := s.Recorder("p")
	r.Transition(true, ms(100))
	for i := int64(0); i < 100; i++ {
		r.Sample(i, ms(100+i), ms(101+i))
	}
	r.Transition(false, ms(400))
	if err := s.Sync(); err != nil {
		t.Fatalf("Sync: %v", err)
	}
	if st := s.Stats(); st.Segments < 3 {
		t.Fatalf("only %d segments, test needs a boundary crossing", st.Segments)
	}
	rep, err := s.Query(ms(150), ms(1000), "")
	if err != nil {
		t.Fatalf("Query: %v", err)
	}
	q := rep.Peers[0].QoS
	if q.Mistakes != 1 {
		t.Fatalf("mistakes = %d, want the cross-segment episode", q.Mistakes)
	}
	if q.TM.Mean != 300 {
		t.Fatalf("E[T_M] = %v ms, want 300 (start kept from before the window)", q.TM.Mean)
	}
}

// BenchmarkQueryPeers times one windowed Query over 4,096 peers, each with
// four delay samples and two mistakes.
func BenchmarkQueryPeers(b *testing.B) {
	s, err := Open(Config{Dir: b.TempDir()})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	for p := 0; p < 4096; p++ {
		r := s.Recorder("peer-" + strconv.Itoa(p))
		for i := int64(0); i < 4; i++ {
			r.Sample(i, ms(100*i), ms(100*i+20))
		}
		r.Transition(true, ms(150))
		r.Transition(false, ms(160))
		r.Transition(true, ms(250))
		r.Transition(false, ms(270))
		if p%512 == 511 {
			if err := s.Sync(); err != nil {
				b.Fatal(err)
			}
		}
	}
	if st := s.Stats(); st.Dropped != 0 {
		b.Fatalf("store dropped %d records while loading", st.Dropped)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep, err := s.Query(0, ms(1000), "")
		if err != nil || len(rep.Peers) != 4096 {
			b.Fatalf("Query: %v", err)
		}
	}
}
