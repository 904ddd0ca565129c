//fdlint:file-ignore clockuse the load generator plays the remote heartbeaters: it paces and stamps sends on the real wall clock

package main

import (
	"encoding/binary"
	"runtime"
	"sync/atomic"
	"time"

	"wanfd/internal/neko"
	"wanfd/internal/transport"
)

const (
	// genTick is the generator's pacing grain: it sleeps to the next tick,
	// sends everything due, and sleeps again. It never spins.
	genTick = time.Millisecond
	// burstCap bounds what the generator sends in one tick. No workload
	// offers more than that to a tick, so it only bites after a stall: the
	// backlog then drains at burstCap a tick instead of all at once, which
	// would overrun the monitor's default-sized socket buffer (about 270
	// small datagrams) and turn a host stall into lost heartbeats.
	burstCap = 128
	// disturbedLate is the send lateness beyond which the host, not the
	// program under test, is held responsible for whatever the segment
	// shows.
	disturbedLate = 10 * time.Millisecond
)

// sendRec is one logged send of a probe-class peer: the stamp the
// heartbeat carried and the instant just before its sendmsg.
type sendRec struct {
	peer          int32
	stamp, actual time.Duration
}

// boundary is what the generator reads at a segment boundary, on its own
// locked thread: process and generator-thread CPU, and heartbeats sent.
type boundary struct {
	procCPU, genCPU time.Duration
	sent            int64
	reached         bool
}

// generator is the open-loop heartbeat source: one goroutine, one socket,
// any number of peers. Heartbeat k of a peer is due at origin + phase +
// k·period and carries its due time (less the slot's lag) as its send
// stamp, so the detector's freshness points do not depend on how late the
// generator itself ran.
type generator struct {
	plan *plan
	snd  *sender
	cpus cpuSplit
	base time.Time
	// origin is the run's time zero on the base clock; the caller sets it
	// just before run so that the sampler shares it.
	origin time.Duration

	pkt  []byte
	seqs []int64
	sent atomic.Int64

	// late holds every send's lateness in nanoseconds, in send order;
	// lateSeg[i] is the number of sends logged when segment i began.
	late    []int32
	lateSeg [numSegments + 1]int
	sends   []sendRec
	bounds  [numSegments + 1]boundary
	// disturbed marks the slices a host stall covered: those between the
	// due time and the actual time of any send later than disturbedLate.
	disturbed []bool
	maxLate   time.Duration
	err       error
}

func newGenerator(p *plan, snd *sender, base time.Time) (*generator, error) {
	pkt, err := transport.Encode(nil, &neko.Message{Type: neko.MsgHeartbeat, From: 1, To: 1000}, 0)
	if err != nil {
		return nil, err
	}
	total := (p.warmup + p.window()).Seconds()
	recorded := 0.0
	for _, s := range p.streams {
		if s.record {
			recorded += float64(len(s.slots)) * (total/s.period.Seconds() + 2)
		}
	}
	return &generator{
		plan:      p,
		snd:       snd,
		base:      base,
		pkt:       pkt,
		seqs:      make([]int64, p.spec.peers),
		disturbed: make([]bool, p.slices()),
		late:      make([]int32, 0, int(p.offeredRate()*total*1.05)+1024),
		sends:     make([]sendRec, 0, int(recorded)+1024),
	}, nil
}

// run paces the whole schedule, warm-up included, and returns when the
// timed window has ended. It owns its OS thread, so that the thread's CPU
// time is the generator's and nothing else's, and never unlocks it: the
// thread is pinned to the generator's CPU and must die with the goroutine
// rather than go back to the runtime's pool.
func (g *generator) run() {
	runtime.LockOSThread()
	g.cpus.pinGenerator()
	p := g.plan
	end := p.warmup + p.window()
	nextBound := 0
	for {
		now := time.Since(g.base) - g.origin
		for nextBound <= numSegments && now >= p.warmup+time.Duration(nextBound)*p.segment {
			g.bounds[nextBound] = boundary{
				procCPU: processCPU(), genCPU: threadCPU(),
				sent: g.sent.Load(), reached: true,
			}
			g.lateSeg[nextBound] = len(g.late)
			nextBound++
		}
		if now >= end {
			return
		}
		for budget := burstCap; budget > 0; budget-- {
			s, sl, due, ok := p.pop(now, end)
			if !ok {
				break
			}
			if !g.sendOne(s, sl, due) {
				return
			}
		}
		now = time.Since(g.base) - g.origin
		time.Sleep(genTick - now%genTick)
	}
}

// noteLate logs one send's lateness. A send later than disturbedLate marks
// every slice from the one it was due in to the one after it went out: the
// stall covered the time between, and the catch-up burst that follows it
// needs a moment to drain.
func (g *generator) noteLate(due, actual time.Duration) {
	late := actual - due
	g.late = append(g.late, int32(min(late, time.Duration(1<<31-1))))
	g.maxLate = max(g.maxLate, late)
	if late <= disturbedLate || actual < g.plan.warmup {
		return
	}
	from, to := max(g.plan.sliceOf(due), 0), g.plan.sliceOf(actual)
	if to < 0 {
		to = len(g.disturbed) - 1
	}
	for sl := from; sl <= min(to+1, len(g.disturbed)-1); sl++ {
		g.disturbed[sl] = true
	}
}

// sendOne stamps and sends one heartbeat and logs how late it went out.
func (g *generator) sendOne(s *stream, sl slot, due time.Duration) bool {
	peer, stamp := sl.peer, due-sl.lag
	g.seqs[peer]++
	binary.BigEndian.PutUint64(g.pkt[12:20], uint64(g.seqs[peer]))
	binary.BigEndian.PutUint64(g.pkt[20:28], uint64(g.base.UnixNano()+int64(g.origin+stamp)))
	actual := time.Since(g.base) - g.origin
	if err := g.snd.send(g.pkt, g.plan.srcs[peer]); err != nil {
		g.err = err
		return false
	}
	g.sent.Add(1)
	g.noteLate(due, actual)
	if s.record {
		g.sends = append(g.sends, sendRec{peer: peer, stamp: stamp, actual: actual})
	}
	return true
}
