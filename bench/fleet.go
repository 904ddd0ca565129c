//fdlint:file-ignore clockuse the benchmark times the monitor from outside, on the real wall clock

package main

import (
	"fmt"
	"math"
	"net/netip"
	"runtime"
	"sort"
	"time"

	"wanfd"
)

// runConfig is what the command line (or a test) asks of one run.
type runConfig struct {
	seed    int64
	seconds int
	// warmup overrides the default max(2η, 2s); peers overrides the spec's
	// peer count. Both exist for the smoke test.
	warmup time.Duration
	peers  int
	// spans receives the traced run's spans; nil makes the run untraced.
	spans *spanLog
}

func (c runConfig) traced() bool { return c.spans != nil }

const (
	// Set-up is timed over at least minSetupCycles build-and-teardown
	// cycles and then for as many more as fit into setupBudget, up to
	// maxSetupCycles: a 4,096-peer monitor builds in a few milliseconds, and
	// the median of five of those moved by a quarter between runs.
	minSetupCycles = 5
	maxSetupCycles = 25
	setupBudget    = time.Second
	// minCleanSegments is how many usable segments a run wants under its
	// medians; fewer reruns the workload.
	minCleanSegments = numSegments / 2
	maxReruns        = 2
	// pollEvery is the traced run's counter-polling period.
	pollEvery = 250 * time.Millisecond
	// scratchDir is where a traced run may write (the store benchmark's
	// segments); it sits inside the checkout and is ignored by git.
	scratchDir = ".bench_build"
	// waveWindow groups suspicions into waves for storm_clear_ms: every
	// freshness point inside one window belongs to one wave, and the wave is
	// clear when its slowest suspicion has been delivered.
	waveWindow = 200 * time.Millisecond
	// waveTrim is the share of a run's waves dropped at either end before
	// their clear times are averaged into storm_clear_ms.
	waveTrim = 0.1
	// lossFloor is the delivered share below which a segment counts as
	// having lost heartbeats; boundarySkew is how many heartbeats the two
	// counters of a boundary reading may disagree by (they are read a Stats
	// walk apart) without any being lost.
	lossFloor    = 0.995
	boundarySkew = 64
)

// runFleet runs one socket workload, rerunning it when the host disturbed
// too many segments.
func runFleet(w workload, cfg runConfig) (*result, error) {
	if !socketSupported {
		return nil, fmt.Errorf("bench: %s: unsupported on %s", w.name, runtime.GOOS)
	}
	for attempt := 0; ; attempt++ {
		res, p, clean, err := runFleetOnce(w, cfg)
		if err != nil {
			return nil, err
		}
		if clean < minCleanSegments && attempt < maxReruns {
			continue
		}
		res.PerLayer.scalar("loadgen.reruns", "count", float64(attempt))
		if clean == 0 {
			return nil, fmt.Errorf("bench: %s: the host disturbed every segment of %d attempts", w.name, attempt+1)
		}
		if clean < minCleanSegments {
			res.note("only %d usable segments after %d reruns: medians rest on fewer segments than usual", clean, attempt)
		}
		if cfg.traced() {
			// A fresh plan: the run consumed the first one's cursors.
			replay := buildPlan(p.spec, cfg.seed, cfg.seconds, p.warmup)
			if err := runLedger(replay, cfg.spans, res.PerLayer, res.EndToEnd["monitor_cpu_us_per_hb"].Value); err != nil {
				return nil, err
			}
			if err := runLayerBenches(res.PerLayer, cfg.seed, scratchDir); err != nil {
				return nil, err
			}
		}
		return res, nil
	}
}

// fleetRun is the state of one attempt.
type fleetRun struct {
	plan *plan
	cfg  runConfig
	mm   *wanfd.MultiMonitor
	gen  *generator
	log  *eventLog
	smp  *sampler
	// lossy holds the probe-class peers that did not receive every heartbeat
	// sent to them.
	lossy map[int32]bool
}

func runFleetOnce(w workload, cfg runConfig) (*result, *plan, int, error) {
	spec := *w.fleet
	if cfg.peers > 0 {
		spec.peers = cfg.peers
	}
	warmup := cfg.warmup
	if warmup == 0 {
		warmup = max(2*spec.eta, 2*time.Second)
	}
	p := buildPlan(spec, cfg.seed, cfg.seconds, warmup)
	if cycle := rackCycle * spec.eta; spec.rack > 0 && p.segment%cycle != 0 {
		return nil, nil, 0, fmt.Errorf("bench: %s needs -seconds to be a multiple of %v", w.name, numSegments*cycle)
	}
	res := newResult(w, cfg)

	snd, err := newSender()
	if err != nil {
		return nil, nil, 0, err
	}
	defer snd.close()
	addrs := make([]string, spec.peers)
	for i, src := range p.srcs {
		addrs[i] = netip.AddrPortFrom(netip.AddrFrom4(src), snd.port()).String()
	}

	base := time.Now()
	transitions := 0.0
	total := (p.warmup + p.window()).Seconds()
	for _, s := range p.streams {
		if s.record {
			transitions += 2 * float64(len(s.slots)) * (total/s.period.Seconds() + 2)
		}
	}
	log := newEventLog(base, int(transitions)+spec.peers+4096)

	// Set-up: build and tear down, and keep the last monitor for the run.
	var mm *wanfd.MultiMonitor
	var setups, removes series
	var heapBefore, heapAfter runtime.MemStats
	for c, began := 1, time.Now(); ; c++ {
		runtime.GC()
		runtime.ReadMemStats(&heapBefore)
		var took time.Duration
		mm, took, err = buildMonitor(p, log, addrs)
		if err != nil {
			return nil, nil, 0, err
		}
		setups = append(setups, took.Seconds())
		if c == maxSetupCycles || (c >= minSetupCycles && time.Since(began) >= setupBudget) {
			break
		}
		if cfg.traced() && c == 1 {
			t0 := time.Now()
			for _, name := range p.names {
				if err := mm.RemovePeer(name); err != nil {
					return nil, nil, 0, err
				}
			}
			removes = append(removes, time.Since(t0).Seconds()*1e6/float64(spec.peers))
		}
		if err := mm.Close(); err != nil {
			return nil, nil, 0, err
		}
	}
	runtime.GC()
	runtime.ReadMemStats(&heapAfter)
	res.EndToEnd.put("setup_s", "s", setups, len(setups))
	res.EndToEnd.scalar("heap_bytes_per_peer", "B",
		(float64(heapAfter.HeapAlloc)-float64(heapBefore.HeapAlloc))/float64(spec.peers))
	res.PerLayer.scalar("wanfd.add_peer_us", "us", median(setups)*1e6/float64(spec.peers))
	res.PerLayer.put("wanfd.remove_peer_us", "us", removes, spec.peers)

	snd.dst = netip.MustParseAddrPort(mm.LocalAddr())
	gen, err := newGenerator(p, snd, base)
	if err != nil {
		_ = mm.Close()
		return nil, nil, 0, err
	}
	gen.cpus = splitCPUs()
	gen.cpus.confine()
	defer gen.cpus.release()
	gen.origin = time.Since(base)
	run := &fleetRun{plan: p, cfg: cfg, mm: mm, gen: gen, log: log}
	run.smp = newSampler(run)

	smpDone := make(chan struct{})
	go func() { defer close(smpDone); run.smp.run() }()
	genDone := make(chan struct{})
	go func() { defer close(genDone); gen.run() }()
	<-genDone
	<-smpDone

	// Let what is in flight land, then freeze the counters.
	sent := gen.sent.Load()
	final := mm.Stats()
	for wait := 0; wait < 60 && int64(final.Detector.Heartbeats) < sent; wait++ {
		time.Sleep(5 * time.Millisecond)
		final = mm.Stats()
	}
	// A probe that lost a heartbeat no longer pauses when the schedule says
	// it does; its cycles cannot be judged.
	run.lossy = map[int32]bool{}
	for _, peer := range p.probes {
		if st, err := mm.PeerStatusOf(p.names[peer]); err == nil && int64(st.Heartbeats) < gen.seqs[peer] {
			run.lossy[peer] = true
		}
	}
	if cfg.traced() {
		run.measureQueries(res)
	}
	if err := mm.Close(); err != nil {
		return nil, nil, 0, err
	}
	if gen.err != nil {
		return nil, nil, 0, fmt.Errorf("bench: generator: %w", gen.err)
	}
	clean := run.evaluate(res, final)
	return res, p, clean, nil
}

// buildMonitor is the timed set-up: one NewMultiMonitor and one AddPeer
// per peer, through the public API with the default predictor, margin and
// transport; telemetry and the store stay off.
func buildMonitor(p *plan, log *eventLog, addrs []string) (*wanfd.MultiMonitor, time.Duration, error) {
	opts := []wanfd.Option{
		wanfd.WithEta(p.spec.eta),
		wanfd.WithMinTimeout(p.timeout()),
		wanfd.WithOnChange(log.onChange),
	}
	if p.spec.expectedPeers > 0 {
		opts = append(opts, wanfd.WithPipeline(wanfd.PipelineConfig{ExpectedPeers: p.spec.expectedPeers}))
	}
	t0 := time.Now()
	mm, err := wanfd.NewMultiMonitor("127.0.0.1:0", opts...)
	if err != nil {
		return nil, 0, err
	}
	for i, name := range p.names {
		if err := mm.AddPeer(name, addrs[i]); err != nil {
			_ = mm.Close()
			return nil, 0, err
		}
	}
	return mm, time.Since(t0), nil
}

// counters is one reading of everything the monitor counts.
type counters struct {
	at    time.Duration
	sent  int64
	stats wanfd.Stats
	mem   runtime.MemStats
}

// sampler reads the monitor's counters at every segment boundary from its
// own goroutine, so that a Stats walk over 65k peers never delays a send.
// In a traced run it also polls every pollEvery inside the odd segments,
// which is the tracing overhead the run reports.
type sampler struct {
	fr     *fleetRun
	bounds [numSegments + 1]counters
	// drift marks segments at whose edge a probe's timeout was not the
	// floor: a long stall fed the predictor a delay above it.
	drift [numSegments]bool
}

func newSampler(fr *fleetRun) *sampler { return &sampler{fr: fr} }

func (s *sampler) read(c *counters, mem bool) {
	g := s.fr.gen
	before := g.sent.Load()
	c.stats = s.fr.mm.Stats()
	c.sent = (before + g.sent.Load()) / 2
	c.at = time.Since(g.base) - g.origin
	if mem {
		runtime.ReadMemStats(&c.mem)
	}
}

func (s *sampler) sleepUntil(t time.Duration) {
	g := s.fr.gen
	if d := t - (time.Since(g.base) - g.origin); d > 0 {
		time.Sleep(d)
	}
}

func (s *sampler) run() {
	p := s.fr.plan
	spans := s.fr.cfg.spans
	for k := 0; k <= numSegments; k++ {
		edge := p.warmup + time.Duration(k)*p.segment
		s.sleepUntil(edge)
		s.read(&s.bounds[k], k == 0 || k == numSegments)
		s.checkTimeouts(k)
		if spans == nil || k == numSegments || k%2 == 0 {
			continue
		}
		for t := edge + pollEvery; t < edge+p.segment-pollEvery/2; t += pollEvery {
			s.sleepUntil(t)
			var c counters // read for what the reading costs, then dropped
			op := spans.begin("wanfd", "poll", 0)
			st := spans.begin("wanfd", "Stats", op)
			s.read(&c, false)
			spans.end(st)
			sd := spans.begin("wanfd", "SchedulerStatsDetail", op)
			_ = s.fr.mm.SchedulerStatsDetail()
			spans.end(sd)
			ms := spans.begin("runtime", "ReadMemStats", op)
			runtime.ReadMemStats(&c.mem)
			spans.end(ms)
			spans.end(op)
		}
	}
}

// checkTimeouts asserts that the floor governs: a few probes' current
// timeout must read exactly 1.5η at every boundary.
func (s *sampler) checkTimeouts(k int) {
	p := s.fr.plan
	for i := 0; i < 8 && i < len(p.probes); i++ {
		peer := p.probes[(k*8+i)%len(p.probes)]
		st, err := s.fr.mm.PeerStatusOf(p.names[peer])
		if err == nil && st.Timeout == p.timeout() {
			continue
		}
		for _, seg := range []int{k - 1, k} {
			if seg >= 0 && seg < numSegments {
				s.drift[seg] = true
			}
		}
	}
}

// measureQueries times the operator-facing reads at the run's peer count.
func (r *fleetRun) measureQueries(res *result) {
	var snap, stats series
	for i := 0; i < 5; i++ {
		t0 := time.Now()
		_ = r.mm.Snapshot()
		t1 := time.Now()
		_ = r.mm.Stats()
		t2 := time.Now()
		snap = append(snap, t1.Sub(t0).Seconds()*1e3)
		stats = append(stats, t2.Sub(t1).Seconds()*1e3)
	}
	res.PerLayer.put("wanfd.snapshot_ms", "ms", snap, len(snap))
	res.PerLayer.put("wanfd.stats_ms", "ms", stats, len(stats))
}

// sliceMap says which parts of the timed window the host left alone.
type sliceMap struct {
	plan  *plan
	dirty []bool
	// clean segments are used for the medians: at least half of their slices
	// are left. intact ones lost none.
	clean, intact  [numSegments]bool
	nClean, nDirty int
}

// spanClean reports whether [from, to] lies inside the window and touches no
// disturbed slice.
func (m *sliceMap) spanClean(from, to time.Duration) bool {
	a, b := m.plan.sliceOf(from), m.plan.sliceOf(to)
	if a < 0 || b < 0 {
		return false
	}
	for sl := a; sl <= b; sl++ {
		if m.dirty[sl] {
			return false
		}
	}
	return true
}

// slices folds the generator's stalls and the sampler's timeout drift into
// one map: a stall costs the slices it covered, a timeout off the floor the
// segments on both sides of the boundary it was seen at.
func (r *fleetRun) slices() *sliceMap {
	g := r.gen
	m := &sliceMap{plan: r.plan, dirty: append([]bool(nil), g.disturbed...)}
	perSegment := len(m.dirty) / numSegments
	for s, drifted := range r.smp.drift {
		for sl := s * perSegment; drifted && sl < (s+1)*perSegment; sl++ {
			m.dirty[sl] = true
		}
	}
	for s := range m.clean {
		lost := 0
		for _, d := range m.dirty[s*perSegment : (s+1)*perSegment] {
			if d {
				lost++
			}
		}
		m.nDirty += lost
		m.intact[s] = lost == 0 && g.bounds[s+1].reached
		m.clean[s] = 2*lost <= perSegment && g.bounds[s+1].reached
		if m.clean[s] {
			m.nClean++
		}
	}
	return m
}

// judge matches every probe-class peer's transitions against its schedule,
// counts the failures, and returns the latency samples by segment and the
// slowest suspicion of every wave.
func (r *fleetRun) judge(res *result, m *sliceMap) (detect, trust [][]float64, waves map[int64]float64) {
	p, g := r.plan, r.gen
	eta, timeout := p.spec.eta, p.timeout()
	end := p.warmup + p.window()
	trustWindow := min(eta, detectWindow)

	sends := g.sends
	sort.SliceStable(sends, func(a, b int) bool { return sends[a].peer < sends[b].peer })
	evs, overflow := r.log.events()
	sort.Slice(evs, func(a, b int) bool {
		if evs[a].peer != evs[b].peer {
			return evs[a].peer < evs[b].peer
		}
		return evs[a].at < evs[b].at
	})
	for i := range evs {
		evs[i].at -= g.origin
	}
	res.fail("event_log_overflow", overflow)

	detect = make([][]float64, numSegments)
	trust = make([][]float64, numSegments)
	waves = map[int64]float64{}
	var verdicts [numVerdicts]int64
	cycles := 0
	si, ei := 0, 0
	for peer := int32(0); peer < int32(p.spec.peers); peer++ {
		s0 := si
		for si < len(sends) && sends[si].peer == peer {
			si++
		}
		e0 := ei
		for ei < len(evs) && evs[ei].peer == peer {
			ei++
		}
		if (s0 == si && e0 == ei) || r.lossy[peer] {
			continue
		}
		gaps := gapsOf(sends[s0:si], eta, timeout, end)
		outs, stray := classifyPeer(gaps, evs[e0:ei], trustWindow, eta+timeout)
		tainted := false
		for _, o := range outs {
			tainted = tainted || o.tainted
		}
		for _, ev := range stray {
			// A peer whose timeout a stall pushed off the floor suspects and
			// trusts at times the schedule cannot name.
			if !tainted && m.spanClean(ev.at, ev.at) {
				res.fail("stray_transition", 1)
			}
		}
		for _, o := range outs {
			if o.tainted || (o.blamed != 0 && !m.spanClean(o.blamed, o.blamed)) {
				// A stall moved this pause's freshness point, or made the
				// monitor suspect ahead of it: what it shows is the stall's
				// doing.
				continue
			}
			// A transition that came is judged over the time it took; one
			// that never came, over the window it had.
			if m.spanClean(o.tau, o.tau+within(o.detectLag, detectWindow)) {
				cycles++
				verdicts[o.detect]++
				if o.detectLag >= 0 {
					lag := float64(o.detectLag) / 1e3
					seg := p.segmentOf(o.tau)
					detect[seg] = append(detect[seg], lag)
					w := int64(o.tau / waveWindow)
					waves[w] = math.Max(waves[w], lag/1e3)
				}
			}
			if o.detectLag >= 0 && o.resume >= 0 && m.spanClean(o.resume, o.resume+within(o.trustLatency, trustWindow)) {
				verdicts[o.trust]++
				if o.trustLatency >= 0 {
					seg := p.segmentOf(o.resume)
					trust[seg] = append(trust[seg], float64(o.trustLatency)/1e3)
				}
			}
		}
	}
	for v := cycleMissed; v < numVerdicts; v++ {
		res.fail(verdictNames[v], verdicts[v])
	}
	// core.suspicions counts the whole window; this counts what was judged.
	res.Diagnostic.scalar("probe_cycles", "count", float64(cycles))
	return detect, trust, waves
}

// evaluate turns the run's logs into metrics and failure counts, and
// returns the number of usable segments.
func (r *fleetRun) evaluate(res *result, final wanfd.Stats) int {
	g := r.gen
	m := r.slices()
	clean, intact, nClean, nDirty := m.clean, m.intact, m.nClean, m.nDirty
	detect, trust, waves := r.judge(res, m)

	// Per-segment figures over the usable segments.
	var cleanDetect, cleanTrust [][]float64
	var cpu, genCPU, delivered, drain, stale, expiry, cascades, wakeups series
	var lateP50, lateP99, lateMax series
	var polledCPU, unpolledCPU series
	var hbClean, sentClean int64
	for s := 0; s < numSegments; s++ {
		if !clean[s] {
			continue
		}
		cleanDetect = append(cleanDetect, detect[s])
		cleanTrust = append(cleanTrust, trust[s])
		b0, b1 := g.bounds[s], g.bounds[s+1]
		n := float64(b1.sent - b0.sent)
		res.Attempted += b1.sent - b0.sent
		perHB := float64((b1.procCPU-b1.genCPU)-(b0.procCPU-b0.genCPU)) / 1e3 / n
		cpu = append(cpu, perHB)
		if r.cfg.traced() && s%2 == 1 {
			polledCPU = append(polledCPU, perHB)
		} else {
			unpolledCPU = append(unpolledCPU, perHB)
		}
		genCPU = append(genCPU, float64(b1.genCPU-b0.genCPU)/1e3/n)

		c0, c1 := r.smp.bounds[s], r.smp.bounds[s+1]
		hb := float64(c1.stats.Detector.Heartbeats - c0.stats.Detector.Heartbeats)
		sentSeg := float64(c1.sent - c0.sent)
		delivered = append(delivered, hb/sentSeg)
		if intact[s] && sentSeg-hb > (1-lossFloor)*sentSeg+boundarySkew {
			res.fail("lost_heartbeat", int64(sentSeg-hb))
		}
		hbClean += int64(hb)
		sentClean += c1.sent - c0.sent
		drain = append(drain, hb/math.Max(1, float64(c1.stats.Ingest.Drains-c0.stats.Ingest.Drains)))
		stale = append(stale, float64(c1.stats.Detector.Stale-c0.stats.Detector.Stale)/hb)
		sc0, sc1 := c0.stats.Scheduler, c1.stats.Scheduler
		expiry = append(expiry, float64(sc1.Fired-sc0.Fired)/math.Max(1, float64(sc1.Batches-sc0.Batches)))
		cascades = append(cascades, float64(sc1.Cascades-sc0.Cascades)/hb)
		wakeups = append(wakeups, float64(sc1.Wakeups-sc0.Wakeups)/(c1.at-c0.at).Seconds())

		late := make([]float64, 0, g.lateSeg[s+1]-g.lateSeg[s])
		for _, v := range g.late[g.lateSeg[s]:g.lateSeg[s+1]] {
			late = append(late, float64(v)/1e3)
		}
		sort.Float64s(late)
		lateP50 = append(lateP50, quantile(late, 0.50))
		lateP99 = append(lateP99, quantile(late, 0.99))
		lateMax = append(lateMax, quantile(late, 1))
	}

	// Heartbeats lost over the whole run are exact once the pipeline has
	// drained; they can only be blamed on the program when the host never
	// stalled: a stall fills the socket buffer whatever the program does.
	lost := g.sent.Load() - int64(final.Detector.Heartbeats) - int64(final.Ingest.RingDrops)
	switch total := max(lost, 0) + int64(final.Ingest.RingDrops); {
	case total == 0:
	case nDirty == 0 && res.Failures["lost_heartbeat"] == 0:
		res.fail("lost_heartbeat", total)
	default:
		res.note("%d heartbeats lost in a run with host stalls; %d probes' cycles not judged", total, len(r.lossy))
	}

	ee, pl, dg := res.EndToEnd, res.PerLayer, res.Diagnostic
	for _, kind := range []struct {
		name string
		segs [][]float64
	}{{"trust_latency_us_", cleanTrust}, {"detect_lag_us_", cleanDetect}} {
		for _, q := range []struct {
			name string
			q    float64
		}{{"p02", 0.02}, {"p50", 0.50}, {"p99", 0.99}, {"p999", 0.999}} {
			set := dg // unless the metric is one of the gated ones
			if _, gated := findMetric(kind.name + q.name); gated {
				set = ee
			}
			if vals, n, ok := segmentQuantile(kind.segs, q.q); ok {
				set.put(kind.name+q.name, "us", vals, n)
			}
		}
		worst := math.NaN()
		for _, s := range kind.segs {
			for _, v := range s {
				worst = math.Max(worst, v)
			}
		}
		dg.scalar(kind.name+"max", "us", worst)
	}
	var clear series
	for _, v := range waves {
		clear = append(clear, v)
	}
	ee.put("storm_clear_ms", "ms", clear, len(clear))
	// About half of a fleet's waves clear at the floor the wheel's tick sets
	// (2 ms) and the rest anywhere up to 6 ms, so their median sits on the
	// edge of the floor and jumps from run to run; the mean of the middle
	// four fifths moves with the tail instead.
	if m, ok := ee["storm_clear_ms"]; ok {
		m.Value = trimmedMean(clear, waveTrim)
		ee["storm_clear_ms"] = m
	}
	if len(polledCPU) == 0 || len(unpolledCPU) == 0 {
		// Nothing to set the polled segments against (always so untraced).
		unpolledCPU, polledCPU = cpu, cpu
		if r.cfg.traced() {
			res.note("trace.overhead_ratio: the polled or the unpolled segments were all dropped")
		}
	}
	ee.put("monitor_cpu_us_per_hb", "us", unpolledCPU, int(sentClean))

	pl.put("hb_delivered_ratio", "ratio", delivered, int(sentClean))
	pl.put("loadgen.late_us_p50", "us", lateP50, int(sentClean))
	pl.put("loadgen.late_us_p99", "us", lateP99, int(sentClean))
	pl.put("loadgen.late_us_max", "us", lateMax, int(sentClean))
	pl.put("loadgen.cpu_us_per_hb", "us", genCPU, int(sentClean))
	pl.scalar("loadgen.disturbed_segments", "count", float64(numSegments-nClean))
	pl.put("transport.drain_batch", "count", drain, int(hbClean))
	pl.scalar("transport.kernel_drop_ratio", "ratio", float64(max(lost, 0))/float64(g.sent.Load()))
	first, last := r.smp.bounds[0].stats, r.smp.bounds[numSegments].stats
	pl.scalar("transport.ring_drops", "count", float64(last.Ingest.RingDrops-first.Ingest.RingDrops))
	pl.scalar("transport.pool_misses", "count", float64(last.Ingest.PoolMisses-first.Ingest.PoolMisses))
	pl.put("core.stale_ratio", "ratio", stale, int(hbClean))
	pl.scalar("core.suspicions", "count", float64(last.Detector.Suspicions-first.Detector.Suspicions))
	pl.put("sched.expiry_batch", "count", expiry, 0)
	pl.put("sched.cascades_per_hb", "count", cascades, int(hbClean))
	pl.put("sched.wakeups_per_s", "1/s", wakeups, 0)
	pl.scalar("sched.max_slot_occupancy", "count", float64(last.Scheduler.MaxSlotOccupancy))
	m0, m1 := &r.smp.bounds[0].mem, &r.smp.bounds[numSegments].mem
	pl.scalar("wanfd.gc_cycles", "count", float64(m1.NumGC-m0.NumGC))
	pause := gcPauseMax(m0, m1)
	pl.scalar("wanfd.gc_pause_max_us", "us", pause)
	dg.scalar("gc_pause_max_us", "us", pause)
	if r.cfg.traced() {
		pl.scalar("trace.overhead_ratio", "ratio", median(polledCPU)/median(unpolledCPU))
	}

	if nDirty > 0 {
		res.note("%d of %d %v slices disturbed (generator ran up to %v late), %d of %d segments dropped",
			nDirty, len(m.dirty), sliceLen, g.maxLate.Round(time.Microsecond), numSegments-nClean, numSegments)
	}
	// Correct is about the program's outputs, not about how quiet the host
	// was; a metric the run could not support is a broken run, though.
	res.Correct = res.Failed == 0
	for _, def := range endToEnd {
		if _, ok := ee[def.name]; !ok && !def.simOnly && nClean > 0 {
			res.Correct = false
			res.note("no value for %s", def.name)
		}
	}
	return nClean
}

// within is how long an operation occupied the timeline: the time its
// transition took, or the whole window when it never came.
func within(took, window time.Duration) time.Duration {
	if took < 0 {
		return window
	}
	return took
}

// gcPauseMax is the longest stop-the-world pause among the collections
// that ran between two MemStats readings, in microseconds.
func gcPauseMax(m0, m1 *runtime.MemStats) float64 {
	var worst uint64
	ring := uint32(len(m1.PauseNs))
	for n := m1.NumGC; n > m0.NumGC && n+ring > m1.NumGC; n-- {
		worst = max(worst, m1.PauseNs[(n+ring-1)%ring])
	}
	return float64(worst) / 1e3
}
