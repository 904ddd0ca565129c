package wanfd

// Cluster-scale benchmarks for the sharded MultiMonitor: heartbeat
// dispatch through the router onto the shard timing wheels, with a static
// membership and with a member continuously joining and leaving (churn
// takes one of 16 shard locks instead of stalling every dispatch).

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"wanfd/internal/neko"
	"wanfd/internal/telemetry"
)

const benchClusterPeers = 1024

// benchPeerNames precomputes the member names so the hot loop does no
// formatting.
func benchPeerNames(n int) []string {
	names := make([]string, n)
	for i := range names {
		names[i] = fmt.Sprintf("peer-%05d", i)
	}
	return names
}

// benchPeerAddr gives peer i a unique loopback endpoint. Addresses walk
// the 127.0.0.0/8 block on a fixed port instead of walking ports on
// 127.0.0.1: the port space tops out around 45k peers, the loopback block
// comfortably holds the 100k-peer configurations.
func benchPeerAddr(i int) string {
	return fmt.Sprintf("127.%d.%d.%d:20001", 1+(i>>16), (i>>8)&0xff, i&0xff)
}

// runReceiveBench measures the receive path: one op is attributing and
// dispatching one heartbeat to its peer's detector, round-robin over the
// 1024 members. In the flapping scenario a background goroutine joins and
// leaves a member as fast as it can — the membership write path. Only the
// flapper's own shard stalls during a join/leave critical section, so the
// measured dispatch latency stays flat. Heartbeats enter at the router, so
// the benchmark measures the fan-in path rather than the kernel UDP stack.
func runReceiveBench(b *testing.B, mm *MultiMonitor, peers int, flapping bool) {
	b.Helper()
	stop := make(chan struct{})
	var wg sync.WaitGroup
	var churns atomic.Int64
	if flapping {
		wg.Add(1)
		go func() {
			defer wg.Done()
			const name = "flapper"
			const addr = "127.0.0.1:39999"
			for {
				select {
				case <-stop:
					return
				default:
				}
				if err := mm.AddPeer(name, addr); err != nil {
					b.Error(err)
					return
				}
				if err := mm.RemovePeer(name); err != nil {
					b.Error(err)
					return
				}
				churns.Add(1)
			}
		}()
	}
	base := multiMonitorID + 1
	seqs := make([]int64, peers)
	msg := &neko.Message{Type: neko.MsgHeartbeat}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := i % peers
		seqs[p]++
		msg.From = base + neko.ProcessID(p)
		msg.Seq = seqs[p]
		msg.SentAt = mm.ctx.Clock.Now()
		mm.router.Receive(msg)
	}
	b.StopTimer()
	// Sampled before teardown, with every member's deadline still armed:
	// the steady-state scheduling footprint.
	b.ReportMetric(float64(runtime.NumGoroutine()), "goroutines")
	close(stop)
	wg.Wait()
	if flapping && b.N > 0 {
		b.ReportMetric(float64(churns.Load())/float64(b.N), "churns/op")
	}
}

// benchCluster builds a MultiMonitor over the named peers; the benchmark's
// cleanup closes it.
func benchCluster(b *testing.B, names []string, opts ...Option) *MultiMonitor {
	b.Helper()
	mm, err := NewMultiMonitor("127.0.0.1:0", opts...)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { _ = mm.Close() })
	for i, name := range names {
		if err := mm.AddPeer(name, benchPeerAddr(i)); err != nil {
			b.Fatal(err)
		}
	}
	return mm
}

// BenchmarkCluster1k drives the sharded MultiMonitor at 1024 peers, with a
// static membership and with a member continuously joining and leaving.
func BenchmarkCluster1k(b *testing.B) {
	names := benchPeerNames(benchClusterPeers)
	for _, sc := range []struct {
		name     string
		flapping bool
	}{
		{"steady", false},
		{"flapping", true},
	} {
		sc := sc
		b.Run(sc.name+"/sharded", func(b *testing.B) {
			runReceiveBench(b, benchCluster(b, names), benchClusterPeers, sc.flapping)
		})
		// Same sharded stack with live telemetry: every dispatch counts
		// packets, shard traffic, heartbeats, and observes two histograms.
		// The sharded (uninstrumented) run above doubles as the disabled
		// path — nil registry, dead branches only.
		b.Run(sc.name+"/sharded-telemetry", func(b *testing.B) {
			mm := benchCluster(b, names, WithTelemetry(telemetry.NewRegistry(256)))
			runReceiveBench(b, mm, benchClusterPeers, sc.flapping)
		})
	}
}

// benchCluster10kPeers sizes the timer-pressure benchmark: an order of
// magnitude past BenchmarkCluster1k, where deadline scheduling rather
// than shard-map contention dominates the dispatch cost.
const benchCluster10kPeers = 10240

// BenchmarkCluster10k measures timer pressure: every dispatched heartbeat
// re-arms the sender's deadline, so at 10240 peers the scheduler is the
// hot path. Deadlines re-arm in place on the 16 shard timing wheels (O(1)
// unlink/relink, no allocation, at most one lazy driver goroutine per
// shard). The goroutines metric is sampled at steady state, with every
// peer's deadline armed.
func BenchmarkCluster10k(b *testing.B) {
	names := benchPeerNames(benchCluster10kPeers)
	b.Run("wheel", func(b *testing.B) {
		mm := benchCluster(b, names)
		runReceiveBench(b, mm, benchCluster10kPeers, false)
		b.ReportMetric(float64(mm.SchedulerStats().Timers), "timers")
	})
}

// benchCluster100kPeers sizes the scale configuration: 100k monitored
// peers, the tentpole target of the batched transport pipelines.
const benchCluster100kPeers = 102400

// benchCluster1MPeers sizes the memory-layout tier: 2^20 peers, the
// arena-backed shard refactor's acceptance target. Each peer is a unique
// loopback address (benchPeerAddr walks 127/8, which holds ~16M hosts).
const benchCluster1MPeers = 1 << 20

// BenchmarkCluster100k drives the dispatch + deadline-re-arm path at 100k
// members on the shard wheels. The timers metric confirms every member's
// deadline stays armed; goroutines confirms the scheduling footprint stays
// O(shards), not O(peers).
func BenchmarkCluster100k(b *testing.B) {
	mm := benchCluster(b, benchPeerNames(benchCluster100kPeers))
	runReceiveBench(b, mm, benchCluster100kPeers, false)
	b.ReportMetric(float64(mm.SchedulerStats().Timers), "timers")
}
