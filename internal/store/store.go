// Package store is the durable QoS history of a monitor: an append-only,
// crash-safe, on-disk segment store for heartbeat delay samples and
// suspicion transitions, written off the hot path and queried by time
// window.
//
// The write path follows the transport's ingest idiom (internal/freelist):
// producers — detector heartbeat handlers and transition listeners — push
// fixed-size records onto a bounded MPMC ring and never block; overflow is
// counted and dropped. A single background writer goroutine drains the
// ring in batches, CRC-frames each record, appends to the active segment
// file, and fsyncs on every segment roll, so a crash loses at most the
// unsynced tail of one segment — which reopen detects (CRC/short frame)
// and truncates.
//
// Time is injected: records carry session-elapsed sim.Clock timestamps and
// each segment header carries the session's absolute epoch, so windows
// from different sessions stay comparable and the package never reads the
// wall clock (enforced by the clockuse analyzer — internal/store is
// deliberately NOT on its exemption list).
package store

import (
	"encoding/binary"
	"errors"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"wanfd/internal/freelist"
	"wanfd/internal/sim"
	"wanfd/internal/telemetry"
)

const (
	defaultSegmentBytes = 4 << 20
	// minSegmentBytes keeps the roll threshold above one header + one
	// frame so a roll always makes progress; tests use small segments to
	// force frequent rolls.
	minSegmentBytes = 256
	defaultQueue    = 8192
)

// writerBatch is how many records the writer claims from the ring per
// TryPopN call.
const writerBatch = 512

// ErrClosed is returned by Sync on a store whose writer has exited.
var ErrClosed = errors.New("store: closed")

// Config configures Open.
type Config struct {
	// Dir is the segment directory; created if missing. Required.
	Dir string
	// Clock supplies "now" for Query/Export windows whose end is left
	// open (to <= 0). Optional: without it an open-ended window closes
	// just past the newest record.
	Clock sim.Clock
	// Epoch is the absolute origin (unix nanoseconds) of this session's
	// elapsed timeline, stamped into every segment header so windows from
	// different sessions remain comparable. Zero is a valid epoch.
	Epoch int64
	// SegmentBytes is the roll threshold (default 4 MiB). The active
	// segment is fsynced and sealed once it reaches this size.
	SegmentBytes int64
	// MaxBytes, when positive, bounds total on-disk size: oldest sealed
	// segments are deleted at roll time until the store fits.
	MaxBytes int64
	// MaxAge, when positive, expires sealed segments whose newest record
	// is older than MaxAge relative to the newest record in the store.
	// Age is data-driven — no clock is read on the writer goroutine.
	MaxAge time.Duration
	// Queue is the hot-path ring capacity (default 8192), rounded up to a
	// power of two.
	Queue int
}

// Store is the durable sample/transition store. All exported methods are
// nil-safe so a monitor built without a store pays one branch per call.
//
//fdlint:nilsafe
type Store struct {
	dir      string
	clock    sim.Clock
	epoch    int64
	segBytes int64
	maxBytes int64
	maxAge   time.Duration

	ring   *freelist.Ring[Record]
	notify chan struct{}
	syncCh chan chan error
	quit   chan struct{}
	done   chan struct{}
	closed sync.Once

	records     atomic.Uint64
	samples     atomic.Uint64
	transitions atomic.Uint64
	dropped     atomic.Uint64
	ioErrors    atomic.Uint64
	retired     atomic.Uint64

	mu       sync.Mutex
	byName   map[string]*PeerRecorder // one recorder per interned name
	byID     map[uint32]string
	nextPeer uint32
	segs     []*segMeta // sealed segments, ascending seq
	active   *segMeta
	maxAbs   int64 // absolute (epoch + at) nanos of the newest record

	// Writer-goroutine-owned scratch state, preallocated so the steady
	// write path allocates nothing.
	file     *os.File
	batch    []Record
	scratch  []byte
	segDefs  map[uint32]struct{} // peers already defined in the active segment
	defIDs   []uint32
	defNames []string
}

// Open opens (or creates) the store rooted at cfg.Dir, recovering any
// existing segments: torn tails are truncated at the last CRC-clean frame,
// the peer-id dictionary is rebuilt from peerDef records, and appends
// continue in a fresh segment. The background writer starts immediately.
func Open(cfg Config) (*Store, error) {
	if cfg.Dir == "" {
		return nil, errors.New("store: Config.Dir is required")
	}
	if cfg.SegmentBytes <= 0 {
		cfg.SegmentBytes = defaultSegmentBytes
	}
	if cfg.SegmentBytes < minSegmentBytes {
		cfg.SegmentBytes = minSegmentBytes
	}
	if cfg.Queue <= 0 {
		cfg.Queue = defaultQueue
	}
	if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
		return nil, err
	}
	s := &Store{
		dir:      cfg.Dir,
		clock:    cfg.Clock,
		epoch:    cfg.Epoch,
		segBytes: cfg.SegmentBytes,
		maxBytes: cfg.MaxBytes,
		maxAge:   cfg.MaxAge,
		ring:     freelist.NewRing[Record](cfg.Queue),
		notify:   make(chan struct{}, 1),
		syncCh:   make(chan chan error),
		quit:     make(chan struct{}),
		done:     make(chan struct{}),
		byName:   make(map[string]*PeerRecorder),
		byID:     make(map[uint32]string),
		nextPeer: 1, // id 0 is reserved for global (crash/restore) records
		batch:    make([]Record, writerBatch),
		scratch:  make([]byte, 0, writerBatch*(fixedPayloadLen+frameOverhead)),
		segDefs:  make(map[uint32]struct{}),
	}
	if err := s.recover(); err != nil {
		return nil, err
	}
	next := uint64(1)
	if n := len(s.segs); n > 0 {
		next = s.segs[n-1].seq + 1
	}
	if err := s.openSegment(next); err != nil {
		return nil, err
	}
	go s.run()
	return s, nil
}

// recover scans the segment directory, truncating torn tails and seeding
// the peer dictionary (a later definition of the same name wins, matching
// append order).
func (s *Store) recover() error {
	ents, err := os.ReadDir(s.dir)
	if err != nil {
		return err
	}
	var seqs []uint64
	for _, e := range ents {
		if seq, ok := parseSegName(e.Name()); ok && !e.IsDir() {
			seqs = append(seqs, seq)
		}
	}
	sort.Slice(seqs, func(i, j int) bool { return seqs[i] < seqs[j] })
	for _, seq := range seqs {
		path := segName(s.dir, seq)
		meta, err := scanSegment(path, -1, func(rec Record, name string) error {
			if rec.Kind == recPeerDef && name != "" {
				s.byName[name] = &PeerRecorder{s: s, id: rec.Peer}
				s.byID[rec.Peer] = name
				if rec.Peer >= s.nextPeer {
					s.nextPeer = rec.Peer + 1
				}
			}
			return nil
		})
		if err != nil {
			// Unreadable or corrupt header: no frame in the file is
			// recoverable, so drop it (the usual cause is a crash between
			// segment creation and the header write).
			if errors.Is(err, errBadHeader) {
				os.Remove(path)
				continue
			}
			return err
		}
		meta.seq = seq
		if fi, err := os.Stat(path); err == nil && fi.Size() > meta.bytes {
			if err := os.Truncate(path, meta.bytes); err != nil {
				return err
			}
		}
		s.segs = append(s.segs, meta)
		s.records.Add(meta.records)
		if meta.maxAt >= 0 {
			if abs := meta.epoch + int64(meta.maxAt); abs > s.maxAbs {
				s.maxAbs = abs
			}
		}
	}
	return nil
}

// openSegment creates the next active segment file and writes its header.
func (s *Store) openSegment(seq uint64) error {
	path := segName(s.dir, seq)
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	var hdr [segHeaderSize]byte
	copy(hdr[:8], segMagic)
	binary.LittleEndian.PutUint64(hdr[8:16], uint64(s.epoch))
	if _, err := f.Write(hdr[:]); err != nil {
		f.Close()
		return err
	}
	s.file = f
	meta := &segMeta{seq: seq, path: path, epoch: s.epoch, bytes: segHeaderSize, minAt: -1, maxAt: -1}
	s.mu.Lock()
	s.active = meta
	s.mu.Unlock()
	return nil
}

// Recorder interns a peer name and returns its hot-path write handle: the
// same handle for every call with that name, so only the first call
// allocates. Never per heartbeat or transition: a detector keeps its handle
// (core.DetectorConfig.Sample) and feeds it its samples and its output
// transitions itself. Nil-safe: a nil store returns a nil recorder, whose
// methods are no-ops.
func (s *Store) Recorder(peer string) *PeerRecorder {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	r, ok := s.byName[peer]
	if !ok {
		r = &PeerRecorder{s: s, id: s.nextPeer}
		s.nextPeer++
		s.byName[peer] = r
		s.byID[r.id] = peer
	}
	return r
}

// PeerRecorder is the per-peer hot-path handle: one ring push per call,
// never blocking, zero allocations. Nil-safe.
//
//fdlint:nilsafe
type PeerRecorder struct {
	s  *Store
	id uint32
}

// Sample records one heartbeat delay observation: sequence number, send
// instant and receive instant on the session timeline.
func (p *PeerRecorder) Sample(seq int64, send, recv time.Duration) {
	if p == nil {
		return
	}
	p.s.push(Record{Kind: recSample, Peer: p.id, Seq: seq, T1: int64(send), T2: int64(recv)})
}

// Transition records one detector output flip at the given instant.
func (p *PeerRecorder) Transition(suspected bool, at time.Duration) {
	if p == nil {
		return
	}
	k := recEndSuspect
	if suspected {
		k = recStartSuspect
	}
	p.s.push(Record{Kind: k, Peer: p.id, T1: int64(at)})
}

// RecordCrash marks a ground-truth process crash at the given instant
// (harness use; live monitors have no ground truth).
func (s *Store) RecordCrash(at time.Duration) {
	if s == nil {
		return
	}
	s.push(Record{Kind: recCrash, T1: int64(at)})
}

// RecordRestore marks a ground-truth process recovery at the given instant.
func (s *Store) RecordRestore(at time.Duration) {
	if s == nil {
		return
	}
	s.push(Record{Kind: recRestore, T1: int64(at)})
}

// push enqueues one record, counting (never blocking on) overflow, and
// nudges the writer. The notify channel has capacity one: push happens
// before the send attempt, so either the token is placed or one is already
// pending — the writer can never miss a wakeup.
func (s *Store) push(r Record) {
	if !s.ring.TryPush(r) {
		s.dropped.Add(1)
		return
	}
	select {
	case s.notify <- struct{}{}:
	default:
	}
}

// run is the single writer goroutine: drain on nudge, drain+fsync+ack on
// Sync, drain+fsync+close on Close.
func (s *Store) run() {
	defer close(s.done)
	for {
		select {
		case <-s.quit:
			s.drain()
			if s.file != nil {
				if err := s.file.Sync(); err != nil {
					s.ioErrors.Add(1)
				}
				s.file.Close()
			}
			return
		case ack := <-s.syncCh:
			s.drain()
			var err error
			if s.file != nil {
				err = s.file.Sync()
				if err != nil {
					s.ioErrors.Add(1)
				}
			}
			ack <- err
		case <-s.notify:
			s.drain()
		}
	}
}

// drain empties the ring through writeBatch.
func (s *Store) drain() {
	for {
		n := s.ring.TryPopN(s.batch)
		if n == 0 {
			return
		}
		s.writeBatch(s.batch[:n])
	}
}

// writeBatch splits one claimed run into chunks that respect the segment
// roll threshold (a chunk may overshoot by at most one frame plus its
// peer definitions) and rolls between them. At production segment sizes a
// whole batch is one chunk, so the chunking costs two mutex operations.
func (s *Store) writeBatch(recs []Record) {
	const frameSize = fixedPayloadLen + frameOverhead
	for len(recs) > 0 {
		s.mu.Lock()
		room := s.segBytes - s.active.bytes
		s.mu.Unlock()
		if room <= 0 {
			s.roll()
			continue
		}
		n := int(room/frameSize) + 1
		if n > len(recs) {
			n = len(recs)
		}
		s.writeRun(recs[:n])
		recs = recs[n:]
	}
	s.mu.Lock()
	roll := s.active.bytes >= s.segBytes
	s.mu.Unlock()
	if roll {
		s.roll()
	}
}

// writeRun encodes one chunk — peer definitions not yet present in the
// active segment first, then the records — and appends it with a single
// file write. Metadata is refreshed under the store lock only after the
// bytes are durably ordered in the file, so readers never index past what
// a concurrent scan can decode.
func (s *Store) writeRun(recs []Record) {
	if s.file == nil {
		s.dropped.Add(uint64(len(recs)))
		return
	}
	s.scratch = s.scratch[:0]
	s.defIDs = s.defIDs[:0]
	for _, r := range recs {
		if r.Peer == 0 {
			continue
		}
		if _, ok := s.segDefs[r.Peer]; !ok {
			s.segDefs[r.Peer] = struct{}{}
			s.defIDs = append(s.defIDs, r.Peer)
		}
	}
	if len(s.defIDs) > 0 {
		s.defNames = s.defNames[:0]
		s.mu.Lock()
		for _, id := range s.defIDs {
			s.defNames = append(s.defNames, s.byID[id])
		}
		s.mu.Unlock()
		for i, id := range s.defIDs {
			s.scratch = appendDefFrame(s.scratch, id, s.defNames[i])
		}
	}
	at0 := recs[0].at()
	minAt, maxAt := at0, at0
	var samples, transitions uint64
	for _, r := range recs {
		s.scratch = appendFrame(s.scratch, r)
		at := r.at()
		if at < minAt {
			minAt = at
		}
		if at > maxAt {
			maxAt = at
		}
		switch r.Kind {
		case recSample:
			samples++
		case recStartSuspect, recEndSuspect:
			transitions++
		}
	}
	if _, err := s.file.Write(s.scratch); err != nil {
		s.ioErrors.Add(1)
		s.dropped.Add(uint64(len(recs)))
		return
	}
	s.mu.Lock()
	s.active.bytes += int64(len(s.scratch))
	s.active.records += uint64(len(recs) + len(s.defIDs))
	if s.active.minAt < 0 || minAt < s.active.minAt {
		s.active.minAt = minAt
	}
	if maxAt > s.active.maxAt {
		s.active.maxAt = maxAt
	}
	if abs := s.epoch + int64(maxAt); abs > s.maxAbs {
		s.maxAbs = abs
	}
	s.mu.Unlock()
	s.records.Add(uint64(len(recs)))
	s.samples.Add(samples)
	s.transitions.Add(transitions)
}

// roll seals the active segment (fsync, close, index) and opens the next
// one, then applies retention. Runs on the writer goroutine only.
func (s *Store) roll() {
	if err := s.file.Sync(); err != nil {
		s.ioErrors.Add(1)
	}
	s.file.Close()
	s.file = nil
	s.mu.Lock()
	sealed := s.active
	s.segs = append(s.segs, sealed)
	s.mu.Unlock()
	clear(s.segDefs)
	if err := s.openSegment(sealed.seq + 1); err != nil {
		s.ioErrors.Add(1)
	}
	s.retain()
}

// retain deletes sealed segments that violate the age or size bounds,
// oldest first; the active segment is never deleted. File removal happens
// outside the store lock.
func (s *Store) retain() {
	var remove []*segMeta
	s.mu.Lock()
	if s.maxAge > 0 {
		cutoff := s.maxAbs - int64(s.maxAge)
		for len(s.segs) > 0 {
			seg := s.segs[0]
			if seg.maxAt < 0 || seg.epoch+int64(seg.maxAt) >= cutoff {
				break
			}
			remove = append(remove, seg)
			s.segs = s.segs[1:]
		}
	}
	if s.maxBytes > 0 {
		total := int64(0)
		if s.active != nil {
			total = s.active.bytes
		}
		for _, seg := range s.segs {
			total += seg.bytes
		}
		for len(s.segs) > 0 && total > s.maxBytes {
			seg := s.segs[0]
			remove = append(remove, seg)
			total -= seg.bytes
			s.segs = s.segs[1:]
		}
	}
	s.mu.Unlock()
	for _, seg := range remove {
		if err := os.Remove(seg.path); err != nil {
			s.ioErrors.Add(1)
		}
		s.retired.Add(1)
	}
}

// Sync flushes everything queued at the time of the call to the active
// segment and fsyncs it. Returns ErrClosed after Close.
func (s *Store) Sync() error {
	if s == nil {
		return nil
	}
	ack := make(chan error, 1)
	select {
	case s.syncCh <- ack:
		select {
		case err := <-ack:
			return err
		case <-s.done:
			return ErrClosed
		}
	case <-s.done:
		return ErrClosed
	}
}

// Close drains the queue, fsyncs the active segment and stops the writer.
// Producers must be stopped first: records pushed after Close starts
// draining may be dropped (counted). Idempotent; never returns an error on
// a nil or already-closed store.
func (s *Store) Close() error {
	if s == nil {
		return nil
	}
	s.closed.Do(func() { close(s.quit) })
	<-s.done
	return nil
}

// Stats is the store's counter snapshot, composed into wanfd.Stats.
type Stats struct {
	// Enabled reports whether a store is attached at all.
	Enabled bool `json:"enabled"`
	// Records counts records durably framed (including recovered ones);
	// Samples and Transitions split this session's writes by kind.
	Records     uint64 `json:"records"`
	Samples     uint64 `json:"samples"`
	Transitions uint64 `json:"transitions"`
	// Dropped counts hot-path pushes lost to ring overflow or write
	// errors — the never-blocking contract's price.
	Dropped uint64 `json:"dropped"`
	// IOErrors counts failed writes, fsyncs and removals.
	IOErrors uint64 `json:"io_errors"`
	// Segments and Bytes describe the on-disk footprint (sealed + active);
	// Retired counts segments deleted by retention.
	Segments int    `json:"segments"`
	Bytes    int64  `json:"bytes"`
	Retired  uint64 `json:"retired"`
	// QueueDepth is the approximate hot-path ring occupancy.
	QueueDepth int `json:"queue_depth"`
}

// Stats returns a point-in-time snapshot. Nil-safe: a nil store reports
// Enabled=false and zeros.
func (s *Store) Stats() Stats {
	if s == nil {
		return Stats{}
	}
	st := Stats{
		Enabled:     true,
		Records:     s.records.Load(),
		Samples:     s.samples.Load(),
		Transitions: s.transitions.Load(),
		Dropped:     s.dropped.Load(),
		IOErrors:    s.ioErrors.Load(),
		Retired:     s.retired.Load(),
		QueueDepth:  s.ring.Len(),
	}
	s.mu.Lock()
	st.Segments = len(s.segs)
	for _, seg := range s.segs {
		st.Bytes += seg.bytes
	}
	if s.active != nil {
		st.Segments++
		st.Bytes += s.active.bytes
	}
	s.mu.Unlock()
	return st
}

// Instrument registers on reg a collector writing the store's series from
// one Stats snapshot per scrape, so a store shared by several monitors is
// exported in each one's registry. Call it once per registry. No-op on a
// nil store or registry.
func (s *Store) Instrument(reg *telemetry.Registry) {
	if s == nil || reg == nil {
		return
	}
	reg.Collect(func(sc *telemetry.Scrape) {
		st := s.Stats()
		sc.Counter(0, st.Records)
		sc.Counter(1, st.Dropped)
		sc.Counter(2, st.IOErrors)
		sc.Gauge(3, float64(st.Segments))
		sc.Gauge(4, float64(st.Bytes))
		sc.Gauge(5, float64(st.QueueDepth))
	},
		telemetry.Desc{Name: telemetry.MetricStoreRecords, Help: "Records durably framed by the QoS store.", Type: telemetry.TypeCounter},
		telemetry.Desc{Name: telemetry.MetricStoreDropped, Help: "Store records lost to ring overflow or write errors.", Type: telemetry.TypeCounter},
		telemetry.Desc{Name: telemetry.MetricStoreIOErrors, Help: "Store write, fsync and delete failures.", Type: telemetry.TypeCounter},
		telemetry.Desc{Name: telemetry.MetricStoreSegments, Help: "Store segments on disk, sealed plus active.", Type: telemetry.TypeGauge},
		telemetry.Desc{Name: telemetry.MetricStoreBytes, Help: "Store bytes on disk, sealed plus active.", Type: telemetry.TypeGauge},
		telemetry.Desc{Name: telemetry.MetricStoreQueue, Help: "Store hot-path ring occupancy.", Type: telemetry.TypeGauge},
	)
}
