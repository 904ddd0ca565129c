package wanfd

import (
	"runtime"
	"strings"
	"testing"
	"time"

	"wanfd/internal/telemetry"
)

// buildFleet is bench/fleet.go's timed set-up: one NewMultiMonitor and one
// AddPeer per peer through the public API, default predictor and margin,
// telemetry and the store off unless extra turns them on, names and
// addresses built beforehand.
func buildFleet(tb testing.TB, names, addrs []string, expected int, extra ...Option) *MultiMonitor {
	tb.Helper()
	opts := append([]Option{
		WithEta(2 * time.Second),
		WithMinTimeout(50 * time.Millisecond),
		WithOnChange(func(string, bool, time.Duration) {}),
	}, extra...)
	if expected > 0 {
		opts = append(opts, WithPipeline(PipelineConfig{ExpectedPeers: expected}))
	}
	mm, err := NewMultiMonitor("127.0.0.1:0", opts...)
	if err != nil {
		tb.Fatal(err)
	}
	for i, name := range names {
		if err := mm.AddPeer(name, addrs[i]); err != nil {
			_ = mm.Close()
			tb.Fatal(err)
		}
	}
	return mm
}

func fleetNamesAddrs(n int) (names, addrs []string) {
	names, addrs = benchPeerNames(n), make([]string, n)
	for i := range addrs {
		addrs[i] = benchPeerAddr(i)
	}
	return names, addrs
}

// TestPeerHeapBudget is the benchmark's heap_bytes_per_peer as a tier-1
// test: live heap after building a fleet minus live heap before, per peer,
// and the mallocs the build made per peer. The figures are properties of
// the data layout, not of the machine, so the budgets are tight: a per-peer
// object, one more table entry or a slab geometry that wastes a record's
// worth per peer fails here before any benchmark runs (it reads 331 B at
// 65,536 peers and 361 B at 4,096, the monitor's fixed set-up included —
// its timing wheel alone is ≈52 KB, 13 B a peer at 4,096; one heap object
// more per peer is 16 to 64 bytes and one malloc, one more table entry 34
// B). A default peer is its arena record, its name-table entry and its
// transport address entry, so a build makes well under one malloc per peer
// (0.05 at 65,536, 0.10 at 4,096: arena slabs, table growth and the
// monitor's own set-up), and a reading below the record's 256-B share of
// its slab is a failed measurement, not a pass.
func TestPeerHeapBudget(t *testing.T) {
	const (
		recordBytes    = 256
		mallocsPerPeer = 0.25
	)
	for _, c := range []struct {
		peers, expected int
		budget          float64
	}{
		{4096, 0, 375},
		{65536, 65536, 345},
	} {
		names, addrs := fleetNamesAddrs(c.peers)
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		mm := buildFleet(t, names, addrs, c.expected)
		runtime.GC()
		runtime.ReadMemStats(&after)
		// Alive across both readings: freed in between, the addresses would
		// be credited to the monitor (bench/fleet.go does lose them there,
		// which is why its figure reads some 40 B lower than this one).
		runtime.KeepAlive(addrs)
		runtime.KeepAlive(names)
		perPeer := (float64(after.HeapAlloc) - float64(before.HeapAlloc)) / float64(c.peers)
		mallocs := float64(after.Mallocs-before.Mallocs) / float64(c.peers)
		_ = mm.Close()
		t.Logf("%d peers: %.1f B/peer, %.3f mallocs/peer", c.peers, perPeer, mallocs)
		if perPeer > c.budget {
			t.Errorf("%d peers: %.1f heap bytes per peer, budget %.0f", c.peers, perPeer, c.budget)
		}
		if perPeer < recordBytes {
			t.Errorf("%d peers: %.1f heap bytes per peer, below the record's own %d: the reading failed", c.peers, perPeer, recordBytes)
		}
		if mallocs > mallocsPerPeer {
			t.Errorf("%d peers: %.3f mallocs per AddPeer, budget %.2f", c.peers, mallocs, mallocsPerPeer)
		}
	}
}

// TestPeerHeapBudgetTelemetry is TestPeerHeapBudget with WithTelemetry at
// 4,096 peers. A peer is then its record, its two table entries, its
// telemetry bundle and the bundle's two histogram buffers — ≈827 B; the
// registry holds nothing per peer (it read 3,224 B while it kept ten series
// objects, their labels and a window by name for each). The per-peer series
// are read from the table at scrape time: exactly ten lines a peer.
func TestPeerHeapBudgetTelemetry(t *testing.T) {
	const (
		peers        = 4096
		budget       = 865
		recordBytes  = 256
		linesPerPeer = 10
	)
	names, addrs := fleetNamesAddrs(peers)
	reg := telemetry.NewRegistry(0)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	mm := buildFleet(t, names, addrs, 0, WithTelemetry(reg))
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(addrs)
	runtime.KeepAlive(names)
	defer mm.Close()
	perPeer := (float64(after.HeapAlloc) - float64(before.HeapAlloc)) / peers
	t.Logf("%d peers with telemetry: %.1f B/peer", peers, perPeer)
	if perPeer > budget {
		t.Errorf("%.1f heap bytes per peer with telemetry, budget %d", perPeer, budget)
	}
	if perPeer < recordBytes {
		t.Errorf("%.1f heap bytes per peer, below the record's own %d: the reading failed", perPeer, recordBytes)
	}

	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	lines := peerLines(b.String())
	if len(lines) != peers {
		t.Errorf("%d peers in the exposition, want %d", len(lines), peers)
	}
	for _, name := range names {
		if lines[name] != linesPerPeer {
			t.Errorf("peer %s has %d lines in the exposition, want %d", name, lines[name], linesPerPeer)
			break
		}
	}
}

// countingWriter counts the bytes written to it and keeps none.
type countingWriter struct{ n int }

func (w *countingWriter) Write(p []byte) (int, error) {
	w.n += len(p)
	return len(p), nil
}

// TestScrapeAllocBudget pins what a scrape of a steady 4,096-peer monitor
// allocates against what it writes: each collector starts its buffers at
// the previous scrape's size, so from the second scrape on the samples are
// written into buffers allocated once, plus the per-peer rows the monitor's
// collector reads. Growing them by append instead allocates some 5× the
// bytes written.
func TestScrapeAllocBudget(t *testing.T) {
	const (
		peers = 4096
		ratio = 2.0
	)
	names, addrs := fleetNamesAddrs(peers)
	reg := telemetry.NewRegistry(0)
	mm := buildFleet(t, names, addrs, 0, WithTelemetry(reg))
	defer mm.Close()
	for scrape := 1; scrape <= 4; scrape++ {
		var w countingWriter
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if err := reg.WritePrometheus(&w); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		alloc := float64(after.TotalAlloc - before.TotalAlloc)
		t.Logf("scrape %d: %d bytes written, %.0f allocated (%.2f×)", scrape, w.n, alloc, alloc/float64(w.n))
		if scrape > 1 && alloc > ratio*float64(w.n) {
			t.Errorf("scrape %d allocated %.0f bytes to write %d, want at most %.0f×", scrape, alloc, w.n, ratio)
		}
	}
}

// BenchmarkAddPeer builds the 65,536-peer fleet of fleet_large once per
// iteration and reports what one AddPeer costs: time, bytes and mallocs per
// peer (the monitor's own fixed set-up is in there too, spread thin).
func BenchmarkAddPeer(b *testing.B) {
	const peers = 65536
	names, addrs := fleetNamesAddrs(peers)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mm := buildFleet(b, names, addrs, peers)
		b.StopTimer()
		_ = mm.Close()
		b.StartTimer()
	}
	b.StopTimer()
	runtime.ReadMemStats(&after)
	per := float64(b.N) * peers
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/per, "ns/peer")
	b.ReportMetric(float64(after.TotalAlloc-before.TotalAlloc)/per, "B/peer")
	b.ReportMetric(float64(after.Mallocs-before.Mallocs)/per, "allocs/peer")
}
