package main

import (
	"encoding/binary"
	"fmt"
	"sort"
	"time"

	"wanfd/internal/arena"
	"wanfd/internal/core"
	"wanfd/internal/freelist"
	"wanfd/internal/layers"
	"wanfd/internal/neko"
	"wanfd/internal/sched"
	"wanfd/internal/sim"
	"wanfd/internal/transport"
)

const (
	// ledgerHeartbeats is how much of the workload the stage harness
	// replays.
	ledgerHeartbeats = 200000
	// ledgerSample is the share of batches whose calls are wrapped in
	// spans; the rest run untimed so the log stays small.
	ledgerSample = 64
	// ledgerShards and drainBatch mirror the monitor's default geometry.
	ledgerShards = 16
	drainBatch   = 64
)

// replayBatches regenerates the order and grouping in which the generator
// sends the plan's first n heartbeats: everything it sends in one 1-ms tick
// is one burst, cut into drain-sized batches.
func replayBatches(p *plan, n int) [][]int32 {
	var out [][]int32
	end := p.warmup + p.window()
	for now := time.Duration(0); n > 0 && now < end; now += genTick {
		var burst []int32
		for len(burst) < burstCap && n > 0 {
			_, sl, _, ok := p.pop(now, end)
			if !ok {
				break
			}
			burst = append(burst, sl.peer)
			n--
		}
		for len(burst) > 0 {
			k := min(len(burst), drainBatch)
			out = append(out, burst[:k])
			burst = burst[k:]
		}
	}
	return out
}

// harness is the receive pipeline rebuilt outside the program from each
// layer's exported functions, in the order the monitor calls them: pool,
// decode, address lookup, shard ring, router, monitor layer, detector,
// deadline re-arm. While a batch is sampled every call is wrapped in a
// span whose parent is the call that made it.
type harness struct {
	spans    *spanLog
	sampling bool
	cur      int64 // the open span new spans nest under

	clock  *sim.RealClock
	pool   *freelist.Pool[*neko.Message]
	table  *arena.Map64
	peers  *arena.Arena[neko.ProcessID]
	rings  []*freelist.Ring[*neko.Message]
	router *layers.Router
	pkts   [][]byte
	keys   []uint64
}

// enter opens a span under the one currently open when the batch is
// sampled, and leave closes it; both cost one branch otherwise.
func (h *harness) enter(layer, name string) int64 {
	if !h.sampling {
		return 0
	}
	h.cur = h.spans.begin(layer, name, h.cur)
	return h.cur
}

func (h *harness) leave(id int64) {
	if id != 0 {
		h.spans.end(id)
		h.cur = h.spans.spans[id-1].Parent
	}
}

// spanReceiver, spanConsumer and spanClock put the harness between the
// layers so that a call from one into the next opens a child span.
type spanReceiver struct {
	h   *harness
	mon *layers.Monitor
}

func (r spanReceiver) Receive(m *neko.Message) { r.ReceiveAt(m, r.h.clock.Now()) }
func (r spanReceiver) ReceiveAt(m *neko.Message, at time.Duration) {
	id := r.h.enter("layers", "Monitor.ReceiveAt")
	r.mon.ReceiveAt(m, at)
	r.h.leave(id)
}

type spanConsumer struct {
	h *harness
	*core.Detector
}

func (c spanConsumer) OnHeartbeat(seq int64, sent, now time.Duration) {
	id := c.h.enter("core", "Detector.OnHeartbeat")
	c.Detector.OnHeartbeat(seq, sent, now)
	c.h.leave(id)
}

type spanClock struct {
	h *harness
	*sched.Wheel
}

func (c spanClock) NewTimer(fn func()) sched.Rearmable {
	return spanTimer{h: c.h, Rearmable: c.Wheel.NewTimer(fn)}
}

type spanTimer struct {
	h *harness
	sched.Rearmable
}

func (t spanTimer) RescheduleAt(at, now time.Duration) {
	id := t.h.enter("sched", "Timer.RescheduleAt")
	t.Rearmable.RescheduleAt(at, now)
	t.h.leave(id)
}

func addrKey(src [4]byte, port uint16) uint64 {
	return uint64(binary.BigEndian.Uint32(src[:]))<<16 | uint64(port)
}

func newHarness(p *plan, spans *spanLog) (*harness, func(), error) {
	h := &harness{
		spans:  spans,
		clock:  sim.NewRealClock(),
		pool:   freelist.NewPool(ledgerShards*512+4*drainBatch, func() *neko.Message { return &neko.Message{} }),
		table:  arena.NewMap64(p.spec.peers),
		peers:  arena.New[neko.ProcessID](),
		router: layers.NewRouterSharded(ledgerShards),
		pkts:   heartbeatPackets(p.spec.peers),
		keys:   make([]uint64, p.spec.peers),
	}
	wheels := make([]*sched.Wheel, ledgerShards)
	for i := range wheels {
		wheels[i] = sched.NewWheel(sched.Config{Clock: h.clock})
		h.rings = append(h.rings, freelist.NewRing[*neko.Message](512))
	}
	ctx := &neko.Context{ID: 1000, Clock: h.clock}
	var mons []*layers.Monitor
	for i := 0; i < p.spec.peers; i++ {
		id := neko.ProcessID(1001 + i)
		dets, err := detectorFleet(1, "LAST", spanClock{h, wheels[i%ledgerShards]}, p.spec.eta)
		if err != nil {
			return nil, nil, err
		}
		mon, err := layers.NewConsumerMonitor(spanConsumer{h, dets[0]})
		if err != nil {
			return nil, nil, err
		}
		if err := mon.Init(ctx); err != nil {
			return nil, nil, err
		}
		if err := h.router.Route(id, spanReceiver{h, mon}); err != nil {
			return nil, nil, err
		}
		mons = append(mons, mon)
		idx, rec := h.peers.Alloc()
		*rec = id
		h.keys[i] = addrKey(p.srcs[i], 9)
		h.table.Put(h.keys[i], idx)
	}
	stop := func() {
		for _, m := range mons {
			m.Stop()
		}
		for _, w := range wheels {
			w.Close()
		}
	}
	return h, stop, nil
}

// batch pushes one drained batch through every stage.
func (h *harness) batch(peers []int32, msgs, popped []*neko.Message, seqs []int64) {
	msgs = msgs[:len(peers)]
	root := h.enter("bench", "batch")
	id := h.enter("freelist", "Pool.GetN")
	h.pool.GetN(msgs)
	h.leave(id)
	at := h.clock.Now()
	for i, peer := range peers {
		seqs[peer]++
		binary.BigEndian.PutUint64(h.pkts[peer][12:20], uint64(seqs[peer]))
		id = h.enter("transport", "DecodeInto")
		if _, err := transport.DecodeInto(msgs[i], h.pkts[peer]); err != nil {
			panic(err)
		}
		h.leave(id)
		msgs[i].SentAt = at
	}
	id = h.enter("arena", "Map64.Find")
	for i, peer := range peers {
		if idx, ok := h.table.Find(h.keys[peer], func(arena.Index) bool { return true }); ok {
			msgs[i].From = *h.peers.Get(idx)
		}
	}
	h.leave(id)
	var touched uint64
	id = h.enter("freelist", "Ring.TryPush")
	for _, m := range msgs {
		shard := uint64(uint32(m.From)) % ledgerShards
		h.rings[shard].TryPush(m)
		touched |= 1 << shard
	}
	h.leave(id)
	for shard := 0; touched != 0; shard++ {
		if touched&(1<<shard) == 0 {
			continue
		}
		touched &^= 1 << shard
		id = h.enter("freelist", "Ring.TryPopN")
		k := h.rings[shard].TryPopN(popped)
		h.leave(id)
		id = h.enter("layers", "Router.ReceiveBatch")
		h.router.ReceiveBatch(popped[:k], at)
		h.leave(id)
	}
	id = h.enter("freelist", "Pool.PutN")
	h.pool.PutN(msgs)
	h.leave(id)
	h.leave(root)
}

// runLedger replays the workload through the harness and reports where a
// heartbeat's time goes. monitorCPU is the untraced monitor_cpu_us_per_hb
// the attributed share is reconciled against.
func runLedger(p *plan, spans *spanLog, pl metricSet, monitorCPU float64) error {
	batches := replayBatches(p, ledgerHeartbeats)
	h, stop, err := newHarness(p, spans)
	if err != nil {
		return err
	}
	defer stop()
	msgs := make([]*neko.Message, drainBatch)
	popped := make([]*neko.Message, drainBatch)
	seqs := make([]int64, p.spec.peers)
	first := len(spans.spans)
	wall0 := h.clock.Now()
	sampled := 0
	for i, b := range batches {
		h.sampling = i%ledgerSample == 0
		if h.sampling {
			sampled += len(b)
		}
		h.batch(b, msgs, popped, seqs)
	}
	wall := h.clock.Now() - wall0

	self, err := checkSpans(spans.spans)
	if err != nil {
		return err
	}
	byLayer := map[string]float64{}
	var attributed, total float64
	for i := first; i < len(spans.spans); i++ {
		s := &spans.spans[i]
		total += float64(self[i])
		if s.Layer != "bench" {
			byLayer[s.Layer] += float64(self[i])
			attributed += float64(self[i])
		}
	}
	if total > float64(wall) {
		return fmt.Errorf("bench: ledger: self times sum to %v, more than the %v the replay took", time.Duration(total), wall)
	}
	perHB := attributed / 1e3 / float64(sampled)
	if perHB > monitorCPU {
		return fmt.Errorf("bench: ledger: %.3f us attributed per heartbeat exceeds monitor_cpu_us_per_hb %.3f", perHB, monitorCPU)
	}
	pl.scalar("ledger.attributed_us_per_hb", "us", perHB)
	pl.scalar("ledger.unattributed_us_per_hb", "us", monitorCPU-perHB)
	for _, layer := range []string{"transport", "arena", "freelist", "layers", "core", "sched"} {
		pl.scalar("ledger."+layer+"_self_ns_per_hb", "ns", byLayer[layer]/float64(sampled))
	}
	return nil
}

// checkSpans verifies that the span log is a forest of properly nested
// intervals and returns every span's self time: its duration minus the
// part its children cover. A log that does not nest cannot be summed, so
// it is an error, not a warning.
func checkSpans(spans []span) ([]int64, error) {
	self := make([]int64, len(spans))
	children := make(map[int64][]int, len(spans))
	for i, s := range spans {
		if s.End < s.Start {
			return nil, fmt.Errorf("bench: span %d (%s.%s) ends before it starts", s.ID, s.Layer, s.Name)
		}
		self[i] = s.End - s.Start
		if s.Parent == 0 {
			continue
		}
		if s.Parent < 1 || s.Parent > int64(len(spans)) {
			return nil, fmt.Errorf("bench: span %d names unknown parent %d", s.ID, s.Parent)
		}
		par := spans[s.Parent-1]
		if s.Start < par.Start || s.End > par.End || s.Op != par.Op {
			return nil, fmt.Errorf("bench: span %d (%s.%s) is not inside its parent %d", s.ID, s.Layer, s.Name, par.ID)
		}
		children[s.Parent] = append(children[s.Parent], i)
	}
	for parent, kids := range children {
		sort.Slice(kids, func(a, b int) bool { return spans[kids[a]].Start < spans[kids[b]].Start })
		for j, k := range kids {
			if j > 0 && spans[k].Start < spans[kids[j-1]].End {
				return nil, fmt.Errorf("bench: spans %d and %d overlap under parent %d", spans[kids[j-1]].ID, spans[k].ID, parent)
			}
			self[parent-1] -= spans[k].End - spans[k].Start
		}
	}
	return self, nil
}
