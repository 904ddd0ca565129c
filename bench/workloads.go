package main

import (
	"fmt"
	"math/rand"
	"sort"
	"time"

	"wanfd/internal/sched"
)

// workload is one named traffic shape. The four socket workloads drive a
// real MultiMonitor through the loopback interface; paper_sim runs the
// paper's own virtual-time experiment and touches no socket.
type workload struct {
	name string
	// why is the one-line reason the workload exists (BENCHMARK.json).
	why   string
	fleet *fleetSpec // nil for paper_sim
}

// fleetSpec shapes a socket workload: how many peers, how their phases are
// laid out on the η grid, and which of them pause so that the monitor
// must suspect and re-trust them (the latency probes).
type fleetSpec struct {
	peers int
	eta   time.Duration
	// expectedPeers is passed as PipelineConfig.ExpectedPeers (0 keeps the
	// default scale profile).
	expectedPeers int
	// groups > 0 makes peers share phases: groups of peers/groups members,
	// eta/groups apart. 0 staggers every peer uniformly over [0, η).
	groups int
	// probeEvery > 0 turns one peer in probeEvery into a probe: it sends on
	// a probeMult·η period while the monitor expects η, so every heartbeat
	// it sends ends one suspicion and starts the next.
	probeEvery, probeMult int
	// rack > 0 puts that many peers on one shared phase; every rackCycle
	// heartbeat periods the whole rack skips rackSilent of them and then
	// resumes.
	rack int
}

// The rack sends two heartbeats, skips three and starts over: the pause
// outlasts the 2.5η freshness window, so every cycle is one storm of
// suspicions followed by one burst of trusts.
const (
	rackCycle  = 5
	rackSilent = 3
	// rackPace is how many of the rack's datagrams leave per generator
	// tick: about the background's own rate, so the rack's return does not
	// turn an expiry workload into an ingest one.
	rackPace = 16
)

// minTimeoutFactor is the adaptive-timeout floor in units of η. On
// loopback the floor dominates prediction plus margin, so every freshness
// point is σ + η + 1.5η and the generator knows it without asking.
const minTimeoutFactor = 1.5

var workloads = []workload{
	{
		name: "fleet_steady",
		why:  "4,096 staggered peers at eta=200ms: small working set and small drain batches, so per-wake-up overhead dominates and batching does little",
		fleet: &fleetSpec{
			peers: 4096, eta: 200 * time.Millisecond,
			probeEvery: 4, probeMult: 4,
		},
	},
	{
		name: "fleet_burst",
		why:  "the same 4,096 peers in 32 phase-sharing groups of 128: drain batches fill, so a batching gain shows here and must not show on fleet_steady",
		fleet: &fleetSpec{
			peers: 4096, eta: 200 * time.Millisecond, groups: 32,
			probeEvery: 4, probeMult: 4,
		},
	},
	{
		name: "fleet_large",
		why:  "65,536 staggered peers at eta=2s: cache-cold peer lookups, 65k deadlines on the coarse wheel level, set-up time and bytes per peer at size",
		fleet: &fleetSpec{
			peers: 65536, eta: 2 * time.Second, expectedPeers: 65536,
			probeEvery: 4, probeMult: 4,
		},
	},
	{
		name: "rack_storm",
		why:  "a rack of 1,024 peers on one phase pauses every second: expiry-dominated, 1,024 deadlines land within two wheel ticks on 16 shard wheels",
		fleet: &fleetSpec{
			peers: 4096, eta: 200 * time.Millisecond, rack: 1024,
		},
	},
	{
		name: "paper_sim",
		why:  "the paper's 13 runs x 10,000 cycles x 30 detectors in virtual time: bypasses transport and sched, so a socket-side change must not move it and an ARIMA cost does",
	},
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("bench: unknown workload %q", name)
}

// slot is one peer's place in a stream's period: it sends phase into the
// period and stamps the heartbeat lag earlier than that. Only the rack has
// a lag: its members' stamps, and so their freshness points, lie within
// one wheel tick while their datagrams leave rackPace to a generator tick.
type slot struct {
	phase, lag time.Duration
	peer       int32
}

// stream is a set of peers sending on a common period. The generator walks
// slots in phase order, cycle after cycle; the due time of the next send is
// cycle·period + slots[next].phase past the run origin.
type stream struct {
	period time.Duration
	slots  []slot
	// once makes the stream stop after its first cycle (the hello
	// heartbeats that arm late-phased probes during warm-up).
	once bool
	// record makes the generator log every send's due and actual instant,
	// from which the expected suspicions and trusts are derived.
	record bool
	// silent gates the rack: heartbeats stamped inside a silent window are
	// skipped.
	silent *silence

	next  int
	cycle int64
}

// silence describes the rack's periodic pause: from origin on, every
// cycle-long stretch is silent in [from, from+length).
type silence struct {
	origin, cycle, from, length time.Duration
}

func (s *silence) covers(stamp time.Duration) bool {
	if stamp < s.origin {
		return false
	}
	off := (stamp - s.origin) % s.cycle
	return off >= s.from && off < s.from+s.length
}

// due is the next send's due time relative to the run origin; ok is false
// once a one-shot stream is exhausted.
func (s *stream) due() (time.Duration, bool) {
	if len(s.slots) == 0 || (s.once && s.cycle > 0) {
		return 0, false
	}
	return time.Duration(s.cycle)*s.period + s.slots[s.next].phase, true
}

func (s *stream) advance() {
	s.next++
	if s.next == len(s.slots) {
		s.next = 0
		s.cycle++
	}
}

// pop returns the next heartbeat due at or before now, over all streams in
// due order, and moves past it. Heartbeats the rack's silence covers, and
// those due at or after end, are passed over.
func (p *plan) pop(now, end time.Duration) (s *stream, sl slot, due time.Duration, ok bool) {
	for {
		s = nil
		for _, c := range p.streams {
			if d, live := c.due(); live && d <= now && (s == nil || d < due) {
				s, due = c, d
			}
		}
		if s == nil {
			return nil, slot{}, 0, false
		}
		sl = s.slots[s.next]
		s.advance()
		if due < end && (s.silent == nil || !s.silent.covers(due-sl.lag)) {
			return s, sl, due, true
		}
	}
}

// plan is everything the generator and the classifier need to know about
// one socket run: who the peers are, when each is due, and the detector
// timeout that makes every freshness point computable.
type plan struct {
	spec    fleetSpec
	names   []string
	srcs    [][4]byte
	streams []*stream
	// probes lists the peers whose pauses produce expected transitions
	// (probes and rack members), for the timeout assertion.
	probes []int32
	// warmup and segment lay out the run: the timed window starts at
	// warmup and holds numSegments segments.
	warmup, segment time.Duration
}

const (
	numSegments = 14
	// sliceLen is the grain at which a host stall is cut out of the run: a
	// stall costs the slices it covers, not the whole segment.
	sliceLen = 100 * time.Millisecond
)

// timeout is the detector timeout the floor pins: τ = σ + η + timeout.
func (p *plan) timeout() time.Duration {
	return time.Duration(float64(p.spec.eta) * minTimeoutFactor)
}

func (p *plan) window() time.Duration { return numSegments * p.segment }

// segmentOf maps an instant (relative to origin) to its timed segment, or
// -1 outside the window.
func (p *plan) segmentOf(t time.Duration) int {
	if t < p.warmup || t >= p.warmup+p.window() {
		return -1
	}
	return int((t - p.warmup) / p.segment)
}

// slices is the number of sliceLen slices in the timed window.
func (p *plan) slices() int { return int((p.window() + sliceLen - 1) / sliceLen) }

// sliceOf maps an instant (relative to origin) to its slice of the timed
// window, or -1 outside it.
func (p *plan) sliceOf(t time.Duration) int {
	if t < p.warmup || t >= p.warmup+p.window() {
		return -1
	}
	return int((t - p.warmup) / sliceLen)
}

// peerName encodes the peer index so the OnChange callback recovers it
// without a map lookup.
func peerName(i int) string { return fmt.Sprintf("p%05x", i) }

// peerIndex inverts peerName.
func peerIndex(name string) int32 {
	var v int32
	for i := 1; i < len(name); i++ {
		c := name[i]
		if c <= '9' {
			v = v<<4 | int32(c-'0')
		} else {
			v = v<<4 | int32(c-'a'+10)
		}
	}
	return v
}

// peerSource is peer i's loopback source address, 127.(1+i>>16).b.c.
func peerSource(i int) [4]byte {
	return [4]byte{127, byte(1 + i>>16), byte(i >> 8), byte(i)}
}

// buildPlan lays the workload's peers out on the η grid. The seed shuffles
// which peer gets which phase and which peers are probes or rack members;
// the shape itself (counts, spacing, periods) is fixed by the spec.
func buildPlan(spec fleetSpec, seed int64, seconds int, warmup time.Duration) *plan {
	p := &plan{
		spec:    spec,
		names:   make([]string, spec.peers),
		srcs:    make([][4]byte, spec.peers),
		warmup:  warmup,
		segment: time.Duration(seconds) * time.Second / numSegments,
	}
	for i := range p.names {
		p.names[i] = peerName(i)
		p.srcs[i] = peerSource(i)
	}
	order := rand.New(rand.NewSource(seed)).Perm(spec.peers)

	if spec.rack > 0 {
		rack := &stream{period: spec.eta, record: true, silent: &silence{
			origin: warmup,
			cycle:  rackCycle * spec.eta,
			from:   spec.eta / 2,
			length: rackSilent * spec.eta,
		}}
		for j, peer := range order[:spec.rack] {
			// The datagrams leave rackPace to a tick, but the stamps stay
			// together: they differ only by a fraction of one wheel tick,
			// spread evenly, so that the rack's freshness points cover the
			// monitor's tick grid the same way wherever the run's origin
			// happens to fall on it.
			pace := time.Duration(j/rackPace) * genTick
			within := time.Duration(j%rackPace) * sched.DefaultTick / rackPace
			rack.slots = append(rack.slots, slot{phase: pace, lag: pace - within, peer: int32(peer)})
			p.probes = append(p.probes, int32(peer))
		}
		p.streams = append(p.streams, rack)
		order = order[spec.rack:]
	}

	bg := &stream{period: spec.eta}
	probes := &stream{period: time.Duration(spec.probeMult) * spec.eta, record: true}
	hello := &stream{period: spec.eta, once: true, record: true}
	n := len(order)
	for j, peer := range order {
		var phase time.Duration
		if spec.groups > 0 {
			// Each group sits a further 1/groups of a wheel tick along, so the
			// groups' freshness points cover the tick grid evenly (see the rack).
			g := time.Duration(j % spec.groups)
			phase = g * (spec.eta + sched.DefaultTick) / time.Duration(spec.groups)
		} else {
			phase = time.Duration(j) * spec.eta / time.Duration(n)
		}
		// Walking j in steps of groups keeps probe selection uniform inside
		// every group as well as across the staggered layout.
		rank := j
		if spec.groups > 0 {
			rank = j / spec.groups
		}
		if spec.probeEvery == 0 || rank%spec.probeEvery != 0 {
			bg.slots = append(bg.slots, slot{phase: phase, peer: int32(peer)})
			continue
		}
		// Spread the probes' long period over its η-sized quarters so the
		// offered rate is flat; a probe starting late says hello in the
		// first η so its deadline is armed before the timed window.
		quarter := (rank / spec.probeEvery) % spec.probeMult
		if quarter > 0 {
			hello.slots = append(hello.slots, slot{phase: phase, peer: int32(peer)})
		}
		probes.slots = append(probes.slots, slot{
			phase: phase + time.Duration(quarter)*spec.eta, peer: int32(peer)})
		p.probes = append(p.probes, int32(peer))
	}
	for _, s := range []*stream{bg, probes, hello} {
		if len(s.slots) == 0 {
			continue
		}
		sort.SliceStable(s.slots, func(a, b int) bool { return s.slots[a].phase < s.slots[b].phase })
		p.streams = append(p.streams, s)
	}
	return p
}

// offeredRate is the heartbeats per second the plan sends outside silent
// windows, used to size the generator's preallocated logs.
func (p *plan) offeredRate() float64 {
	var r float64
	for _, s := range p.streams {
		if !s.once {
			r += float64(len(s.slots)) / s.period.Seconds()
		}
	}
	return r
}
