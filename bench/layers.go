//fdlint:file-ignore clockuse the layer benchmarks time each package's exported calls from outside, on the real wall clock

package main

import (
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/netip"
	"os"
	"runtime"
	"sort"
	"sync/atomic"
	"time"

	"wanfd/internal/arena"
	"wanfd/internal/arima"
	"wanfd/internal/core"
	"wanfd/internal/freelist"
	"wanfd/internal/layers"
	"wanfd/internal/neko"
	"wanfd/internal/nekostat"
	"wanfd/internal/sched"
	"wanfd/internal/sim"
	"wanfd/internal/store"
	"wanfd/internal/telemetry"
	"wanfd/internal/transport"
	"wanfd/internal/wan"
)

// The per-layer spans of a traced run: each function below times one
// package's exported calls in isolation, a few rounds of a fixed item
// count, and reports the median round. They say what a layer costs when
// nothing else runs; the ledger says what it costs inside the pipeline.

const layerRounds = 5

// rounds times fn, which processes items items, layerRounds times and
// returns nanoseconds per item for each round. With items = 1e6 the unit
// becomes milliseconds per call.
func rounds(items int, fn func()) series {
	out := make(series, layerRounds)
	for r := range out {
		t0 := time.Now()
		fn()
		out[r] = float64(time.Since(t0)) / float64(items)
	}
	return out
}

// sink keeps results alive so the compiler cannot drop a measured call.
var sink int

type nopReceiver struct{ n int }

func (r *nopReceiver) Receive(*neko.Message)                  { r.n++ }
func (r *nopReceiver) ReceiveAt(*neko.Message, time.Duration) { r.n++ }

// heartbeatPackets encodes one heartbeat datagram per peer.
func heartbeatPackets(n int) [][]byte {
	pkts := make([][]byte, n)
	for i := range pkts {
		pkts[i], _ = transport.Encode(nil, &neko.Message{Type: neko.MsgHeartbeat, From: 1, To: 1000, Seq: int64(i)}, 0)
	}
	return pkts
}

// runLayerBenches fills in every per-layer span metric. scratch is a
// directory the store benchmark may write under.
func runLayerBenches(pl metricSet, seed int64, scratch string) error {
	for _, bench := range []func(metricSet, int64) error{
		benchTransport, benchFreelist, benchArena, benchLayers, benchCore,
		benchSched, benchSim, benchTelemetry,
	} {
		if err := bench(pl, seed); err != nil {
			return err
		}
		runtime.GC()
	}
	return benchStore(pl, scratch)
}

func benchTransport(pl metricSet, _ int64) error {
	const peers = 4096
	pkts := heartbeatPackets(peers)
	m := &neko.Message{}
	pl.put("transport.decode_ns", "ns", rounds(16*peers, func() {
		for r := 0; r < 16; r++ {
			for _, pkt := range pkts {
				if _, err := transport.DecodeInto(m, pkt); err != nil {
					panic(err)
				}
			}
		}
	}), 16*peers*layerRounds)

	// The receive path minus the kernel: injected packets are decoded,
	// attributed, stamped, handed over the shard rings and delivered.
	netw, err := transport.NewUDPNetwork(transport.UDPConfig{LocalID: 1000, Listen: "127.0.0.1:0"})
	if err != nil {
		return err
	}
	defer netw.Close()
	srcs := make([]netip.AddrPort, peers)
	for i := range srcs {
		srcs[i] = netip.AddrPortFrom(netip.AddrFrom4(peerSource(i)), 9)
		if err := netw.AddPeer(neko.ProcessID(1001+i), srcs[i].String()); err != nil {
			return err
		}
	}
	if _, err := netw.Attach(1000, &nopReceiver{}); err != nil {
		return err
	}
	inj := netw.NewInjector()
	delivered := func() uint64 {
		_, rcv, bad := netw.Stats()
		return rcv + bad + netw.IngestStats().RingDrops
	}
	for _, chunk := range []int{1, 64} {
		var sent uint64
		base := delivered()
		pl.put(fmt.Sprintf("transport.inject_ns_per_hb.b%d", chunk), "ns", rounds(4*peers, func() {
			for r := 0; r < 4; r++ {
				for i := 0; i < peers; i += chunk {
					inj.InjectBatch(pkts[i:i+chunk], srcs[i:i+chunk])
					sent += uint64(chunk)
					// Bound the lag so the shard rings never overflow.
					for sent-(delivered()-base) > 512 {
						runtime.Gosched()
					}
				}
			}
			for delivered()-base < sent {
				runtime.Gosched()
			}
		}), 4*peers*layerRounds)
	}

	// The send side the monitor never uses: recorded so that a change to
	// the heartbeater's path is visible somewhere.
	drain, err := net.ListenUDP("udp4", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		return err
	}
	defer drain.Close()
	out, err := transport.NewUDPNetwork(transport.UDPConfig{
		LocalID: 1, Listen: "127.0.0.1:0",
		Peers: map[neko.ProcessID]string{2: drain.LocalAddr().String()},
	})
	if err != nil {
		return err
	}
	defer out.Close()
	snd, err := out.Attach(1, &nopReceiver{})
	if err != nil {
		return err
	}
	hb := &neko.Message{Type: neko.MsgHeartbeat, From: 1, To: 2}
	var pushed uint64
	settled := func() uint64 {
		st := out.EgressStats()
		return st.Packets + st.RingDrops + st.SendErrors
	}
	pl.put("transport.egress_ns_per_pkt", "ns", rounds(8192, func() {
		for i := 0; i < 8192; i++ {
			hb.Seq++
			snd.Send(hb)
			pushed++
			for pushed-settled() > 256 {
				runtime.Gosched()
			}
		}
		for settled() < pushed {
			runtime.Gosched()
		}
	}), 8192*layerRounds)
	st := out.EgressStats()
	pl.scalar("transport.egress_batch", "count", float64(st.Packets)/float64(max(st.Flushes, 1)))
	return nil
}

func benchFreelist(pl metricSet, _ int64) error {
	const items = 1 << 16
	for _, batch := range []int{1, 64} {
		ring := freelist.NewRing[int](512)
		in, out := make([]int, batch), make([]int, batch)
		pl.put(fmt.Sprintf("freelist.ring_handoff_ns.b%d", batch), "ns", rounds(items, func() {
			for i := 0; i < items; i += batch {
				ring.TryPushN(in)
				sink += ring.TryPopN(out)
			}
		}), items*layerRounds)
	}
	pool := freelist.NewPool(1024, func() *neko.Message { return &neko.Message{} })
	buf := make([]*neko.Message, 64)
	pl.put("freelist.pool_getput_ns", "ns", rounds(items, func() {
		for i := 0; i < items; i += len(buf) {
			pool.GetN(buf)
			sink += pool.PutN(buf)
		}
	}), items*layerRounds)
	return nil
}

func benchArena(pl metricSet, seed int64) error {
	for _, size := range []struct {
		n    int
		name string
	}{{4096, "4k"}, {65536, "64k"}} {
		// Keys are what the transport's address table holds: the workload's
		// source addresses and port packed into one word, looked up in the
		// shuffled order heartbeats arrive in.
		tab := arena.NewMap64(size.n)
		keys := make([]uint64, size.n)
		for i := range keys {
			keys[i] = addrKey(peerSource(i), 9)
			tab.Put(keys[i], arena.Index(i+1))
		}
		rand.New(rand.NewSource(seed)).Shuffle(len(keys), func(a, b int) { keys[a], keys[b] = keys[b], keys[a] })
		reps := (1 << 18) / size.n
		pl.put("arena.map64_find_ns."+size.name, "ns", rounds(reps*size.n, func() {
			for r := 0; r < reps; r++ {
				for _, k := range keys {
					if idx, ok := tab.Find(k, func(arena.Index) bool { return true }); ok {
						sink += int(idx)
					}
				}
			}
		}), reps*size.n*layerRounds)
	}
	type record struct{ pad [8]uint64 }
	a := arena.New[record]()
	idx := make([]arena.Index, 4096)
	pl.put("arena.alloc_free_ns", "ns", rounds(16*len(idx), func() {
		for r := 0; r < 16; r++ {
			for i := range idx {
				idx[i], _ = a.Alloc()
			}
			for _, i := range idx {
				a.Free(i)
			}
		}
	}), 16*len(idx)*layerRounds)
	return nil
}

// detectorFleet builds n default-recipe detectors (LAST + JAC_med with the
// benchmark's floor) on one clock.
func detectorFleet(n int, predictor string, clk sim.Clock, eta time.Duration) ([]*core.Detector, error) {
	dets := make([]*core.Detector, n)
	for i := range dets {
		pred, err := core.NewPredictorByName(predictor)
		if err != nil {
			return nil, err
		}
		margin, err := core.NewMarginByName("JAC_med")
		if err != nil {
			return nil, err
		}
		dets[i], err = core.NewDetector(core.DetectorConfig{
			Name: peerName(i), Predictor: pred, Margin: margin, Eta: eta, Clock: clk,
			MinTimeout: time.Duration(minTimeoutFactor * float64(eta)),
		})
		if err != nil {
			return nil, err
		}
	}
	return dets, nil
}

func benchLayers(pl metricSet, _ int64) error {
	const peers = 4096
	router := layers.NewRouterSharded(16)
	msgs := make([]*neko.Message, peers)
	for i := range msgs {
		id := neko.ProcessID(1001 + i)
		if err := router.Route(id, &nopReceiver{}); err != nil {
			return err
		}
		msgs[i] = &neko.Message{Type: neko.MsgHeartbeat, From: id, To: 1000}
	}
	pl.put("layers.router_dispatch_ns", "ns", rounds(16*peers, func() {
		for r := 0; r < 16; r++ {
			for i := 0; i < peers; i += 64 {
				router.ReceiveBatch(msgs[i:i+64], 0)
			}
		}
	}), 16*peers*layerRounds)

	eta := 200 * time.Millisecond
	wheel := sched.NewWheel(sched.Config{Clock: sim.NewRealClock()})
	defer wheel.Close()
	dets, err := detectorFleet(peers, "LAST", wheel, eta)
	if err != nil {
		return err
	}
	mons := make([]*layers.Monitor, peers)
	ctx := &neko.Context{ID: 1000, Clock: wheel}
	for i, d := range dets {
		if mons[i], err = layers.NewMonitor(d); err != nil {
			return err
		}
		if err := mons[i].Init(ctx); err != nil {
			return err
		}
	}
	var seq int64
	pl.put("layers.monitor_receive_ns", "ns", rounds(4*peers, func() {
		for r := 0; r < 4; r++ {
			seq++
			for i := 0; i < peers; i += 64 {
				at := wheel.Now()
				for j := i; j < i+64; j++ {
					msgs[j].Seq, msgs[j].SentAt = seq, at
					mons[j].ReceiveAt(msgs[j], at)
				}
			}
		}
	}), 4*peers*layerRounds)
	for _, m := range mons {
		m.Stop()
	}
	return nil
}

func benchCore(pl metricSet, seed int64) error {
	const peers = 4096
	eta := 200 * time.Millisecond
	wheel := sched.NewWheel(sched.Config{Clock: sim.NewRealClock()})
	defer wheel.Close()
	dets, err := detectorFleet(peers, "LAST", wheel, eta)
	if err != nil {
		return err
	}
	var seq int64
	pl.put("core.on_heartbeat_ns.wheel", "ns", rounds(4*peers, func() {
		for r := 0; r < 4; r++ {
			seq++
			for i := 0; i < peers; i += 64 {
				at := wheel.Now()
				for _, d := range dets[i : i+64] {
					d.OnHeartbeat(seq, at, at)
				}
			}
		}
	}), 4*peers*layerRounds)
	for _, d := range dets {
		d.Stop()
	}

	// The simulator's use of the same detector: a virtual clock, the
	// stop-and-recreate timer, and the channel's delays as observations.
	ch, err := wan.NewPresetChannel(wan.PresetItalyJapan, seed, "bench")
	if err != nil {
		return err
	}
	delays, err := wan.CollectDelays(ch, 4000, time.Second)
	if err != nil {
		return err
	}
	for _, predictor := range []string{"LAST", "MEAN", "WINMEAN", "LPF", "ARIMA"} {
		var vals series
		for r := 0; r < layerRounds; r++ {
			eng := sim.NewEngine()
			one, err := detectorFleet(1, predictor, eng, time.Second)
			if err != nil {
				return err
			}
			t0 := time.Now()
			for k, d := range delays {
				sent := time.Duration(k) * time.Second
				if err := eng.Run(sent + d); err != nil {
					return err
				}
				one[0].OnHeartbeat(int64(k), sent, sent+d)
			}
			vals = append(vals, float64(time.Since(t0))/float64(len(delays)))
			one[0].Stop()
		}
		pl.put("core.on_heartbeat_ns."+predictor, "ns", vals, len(delays)*layerRounds)
	}

	zs := make([]float64, 1000)
	for i := range zs {
		zs[i] = float64(delays[i]) / float64(time.Millisecond)
	}
	pl.put("arima.fit_ms", "ms", rounds(1e6, func() {
		model, err := arima.Fit(zs, core.ARIMAP, core.ARIMAD, core.ARIMAQ)
		if err != nil {
			panic(err)
		}
		sink += len(model.String())
	}), layerRounds)
	return nil
}

func benchSched(pl metricSet, seed int64) error {
	rng := rand.New(rand.NewSource(seed))
	for _, size := range []struct {
		n    int
		name string
		out  time.Duration
	}{{4096, "4k", 500 * time.Millisecond}, {65536, "64k", 5 * time.Second}} {
		wheel := sched.NewWheel(sched.Config{Clock: sim.NewRealClock()})
		timers := make([]sched.Rearmable, size.n)
		for i := range timers {
			timers[i] = wheel.NewTimer(func() {})
		}
		reps := (1 << 17) / size.n
		pl.put("sched.rearm_ns."+size.name, "ns", rounds(reps*size.n, func() {
			for r := 0; r < reps; r++ {
				for i := 0; i < size.n; i += 64 {
					now := wheel.Now()
					for _, t := range timers[i : i+64] {
						t.RescheduleAt(now+size.out, now)
					}
				}
			}
		}), reps*size.n*layerRounds)
		wheel.Close()
	}

	// The fire path in virtual time: arm, advance past every deadline,
	// divide by the number fired.
	const fired = 1 << 15
	pl.put("sched.fire_ns", "ns", rounds(fired, func() {
		eng := sim.NewEngine()
		wheel := sched.NewWheel(sched.Config{Clock: eng})
		for i := 0; i < fired; i++ {
			wheel.AfterFunc(time.Duration(1+rng.Intn(400))*time.Millisecond, func() { sink++ })
		}
		if err := eng.Run(time.Second); err != nil {
			panic(err)
		}
	}), fired*layerRounds)

	// The floor under every detect_lag: how late an otherwise idle
	// real-time wheel runs a callback.
	const probes = 1000
	spacing := 1137 * time.Microsecond
	clk := sim.NewRealClock()
	wheel := sched.NewWheel(sched.Config{Clock: clk})
	defer wheel.Close()
	lags := make([]float64, probes)
	done := make(chan struct{})
	var left atomic.Int32
	left.Store(probes)
	start := clk.Now() + 5*time.Millisecond
	for i := 0; i < probes; i++ {
		deadline := start + time.Duration(i)*spacing
		slot := &lags[i]
		wheel.NewTimer(func() {
			*slot = float64(clk.Now()-deadline) / 1e3
			if left.Add(-1) == 0 {
				close(done)
			}
		}).RescheduleAt(deadline, clk.Now())
	}
	select {
	case <-done:
	case <-time.After(time.Duration(probes)*spacing + 2*time.Second):
		return fmt.Errorf("bench: wheel fired %d of %d timers", probes-int(left.Load()), probes)
	}
	sort.Float64s(lags)
	pl.scalar("sched.fire_lag_us_p50", "us", quantile(lags, 0.50))
	pl.scalar("sched.fire_lag_us_p99", "us", quantile(lags, 0.99))
	return nil
}

func benchSim(pl metricSet, seed int64) error {
	const events = 1 << 16
	rng := rand.New(rand.NewSource(seed))
	pl.put("sim.event_ns", "ns", rounds(events, func() {
		eng := sim.NewEngine()
		for i := 0; i < events; i++ {
			eng.AfterFunc(time.Duration(rng.Intn(1e9)), func() { sink++ })
		}
		for eng.Step() {
		}
	}), events*layerRounds)

	ch, err := wan.NewPresetChannel(wan.PresetItalyJapan, seed, "bench")
	if err != nil {
		return err
	}
	var k int
	pl.put("wan.transmit_ns", "ns", rounds(events, func() {
		for i := 0; i < events; i++ {
			k++
			if at, ok := ch.Transmit(time.Duration(k) * time.Second); ok {
				sink += int(at)
			}
		}
	}), events*layerRounds)

	// One simulated run's event log: 10,000 heartbeat cycles over the
	// Italy-Japan channel with a crash every 300 cycles, seen by one
	// detector.
	eng := sim.NewEngine()
	col := nekostat.NewCollector()
	margin, err := core.NewMarginByName("JAC_med")
	if err != nil {
		return err
	}
	det, err := core.NewDetector(core.DetectorConfig{
		Name: "d", Predictor: core.NewLast(), Margin: margin, Eta: time.Second, Clock: eng, Listener: col,
	})
	if err != nil {
		return err
	}
	const cycles = 10000
	for c := 0; c < cycles; c++ {
		sent := time.Duration(c) * time.Second
		switch c % 300 {
		case 270:
			eng.At(sent, func() { col.OnCrash(eng.Now()) })
		case 0:
			if c > 0 {
				eng.At(sent, func() { col.OnRestore(eng.Now()) })
			}
		}
		if c%300 >= 270 {
			continue
		}
		if at, ok := ch.Transmit(sent); ok {
			seq := int64(c)
			eng.At(at, func() { det.OnHeartbeat(seq, sent, eng.Now()) })
		}
	}
	end := cycles * time.Second
	if err := eng.Run(end); err != nil {
		return err
	}
	det.Stop()
	log := col.Events()
	pl.put("nekostat.qos_extract_ms", "ms", rounds(1e6, func() {
		q, err := nekostat.QoSFromEvents(log, "d", 0, end)
		if err != nil {
			panic(err)
		}
		sink += q.Crashes
	}), len(log))
	return nil
}

func benchTelemetry(pl metricSet, _ int64) error {
	const peers = 4096
	reg := telemetry.NewRegistry(1024)
	hist := reg.Histogram("bench_seconds", "benchmark histogram", nil)
	const obs = 1 << 18
	pl.put("telemetry.observe_ns", "ns", rounds(obs, func() {
		for i := 0; i < obs; i++ {
			hist.Observe(float64(i&1023) * 1e-4)
		}
	}), obs*layerRounds)
	for i := 0; i < peers; i++ {
		name := peerName(i)
		m := reg.DetectorMetrics(name)
		m.Delay.Observe(0.001)
		m.Delay.Flush()
		reg.DetectorFuncs(name,
			func() (uint64, uint64, uint64) { return 1, 0, 0 },
			func() float64 { return 0.3 },
			func() bool { return false })
	}
	var size countingWriter
	pl.put("telemetry.scrape_ms.4k", "ms", rounds(1e6, func() {
		size = 0
		if err := reg.WritePrometheus(&size); err != nil {
			panic(err)
		}
	}), layerRounds)
	pl.scalar("telemetry.scrape_bytes.4k", "B", float64(size))
	return nil
}

type countingWriter int

func (w *countingWriter) Write(p []byte) (int, error) {
	*w += countingWriter(len(p))
	return len(p), nil
}

var _ io.Writer = (*countingWriter)(nil)

func benchStore(pl metricSet, scratch string) error {
	if err := os.MkdirAll(scratch, 0o755); err != nil {
		return err
	}
	dir, err := os.MkdirTemp(scratch, "store-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	st, err := store.Open(store.Config{Dir: dir})
	if err != nil {
		return err
	}
	defer st.Close()
	rec := st.Recorder("p00000")
	const samples = 1 << 15
	var seq int64
	pl.put("store.sample_ns", "ns", rounds(samples, func() {
		for i := 0; i < samples; i++ {
			seq++
			at := time.Duration(seq) * time.Millisecond
			rec.Sample(seq, at, at+time.Millisecond)
		}
	}), samples*layerRounds)
	var syncs, queries series
	for r := 0; r < layerRounds; r++ {
		rec.Sample(seq+int64(r)+1, time.Duration(seq)*time.Millisecond, time.Duration(seq+1)*time.Millisecond)
		t0 := time.Now()
		if err := st.Sync(); err != nil {
			return err
		}
		t1 := time.Now()
		rep, err := st.Query(0, 0, "")
		if err != nil {
			return err
		}
		sink += len(rep.Peers)
		syncs = append(syncs, t1.Sub(t0).Seconds()*1e3)
		queries = append(queries, time.Since(t1).Seconds()*1e3)
	}
	stats := st.Stats()
	pl.scalar("store.drop_ratio", "ratio", float64(stats.Dropped)/float64(samples*layerRounds+layerRounds))
	pl.put("store.sync_ms", "ms", syncs, layerRounds)
	pl.put("store.query_ms", "ms", queries, int(stats.Records))
	return nil
}
