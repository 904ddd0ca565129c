package trace

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"time"

	"wanfd/internal/nekostat"
)

// Window is an exported slice of a monitor's durable QoS history: every
// delay sample and recorded event inside [From, To), plus the detector
// configuration that produced the recorded suspicions — enough to replay
// the window bit-identically through any detector grid in simulated mode
// (internal/experiment.ReplayWindow, wanfd replay).
type Window struct {
	// From and To bound the window on the recording session's elapsed
	// timeline.
	From, To time.Duration
	// Detector names the live predictor+margin combination (e.g.
	// "LAST+JAC_med") whose suspicion events are recorded, so a replay can
	// verify fidelity against the matching grid member. May be empty.
	Detector string
	// Eta and MinTimeout are the recording monitor's heartbeat period and
	// timeout floor, needed to rebuild an equivalent detector.
	Eta, MinTimeout time.Duration
	// Samples are the heartbeat observations, sorted by receive instant.
	Samples []Sample
	// Events are the recorded suspicion transitions and crash marks,
	// sorted by instant (nekostat kinds on the same timeline as Samples).
	Events []nekostat.Event
}

// Sample is one recorded heartbeat: sequence number plus send and receive
// instants on the session timeline.
type Sample struct {
	Peer       string
	Seq        int64
	Send, Recv time.Duration
}

// ErrBadWindowMagic is returned when window data does not start with the
// expected header.
var ErrBadWindowMagic = errors.New("trace: bad window magic header")

// windowMagic identifies the binary window format, version 1.
var windowMagic = [8]byte{'W', 'F', 'D', 'T', 'R', 'W', '0', '1'}

// maxWindow bounds counts read from a window header — a sanity check
// against corrupt or forged data, mirroring ReadBinary.
const maxWindow = 1 << 28

// WriteWindow encodes w in a compact binary format: a peer-name table,
// then varint-delta-coded samples and events (consecutive instants are
// strongly correlated, so deltas stay small).
func WriteWindow(dst io.Writer, w *Window) error {
	bw := bufio.NewWriter(dst)
	if _, err := bw.Write(windowMagic[:]); err != nil {
		return fmt.Errorf("trace: write window header: %w", err)
	}
	var buf [binary.MaxVarintLen64]byte
	putU := func(v uint64) error {
		n := binary.PutUvarint(buf[:], v)
		_, err := bw.Write(buf[:n])
		return err
	}
	putI := func(v int64) error {
		n := binary.PutVarint(buf[:], v)
		_, err := bw.Write(buf[:n])
		return err
	}
	putS := func(s string) error {
		if err := putU(uint64(len(s))); err != nil {
			return err
		}
		_, err := bw.WriteString(s)
		return err
	}
	// Peer-name table: samples index into it, events reference it by
	// index+1 (0 marks the empty source of crash marks).
	idx := make(map[string]int)
	var names []string
	intern := func(name string) int {
		if i, ok := idx[name]; ok {
			return i
		}
		idx[name] = len(names)
		names = append(names, name)
		return len(names) - 1
	}
	for _, s := range w.Samples {
		intern(s.Peer)
	}
	for _, e := range w.Events {
		if e.Source != "" {
			intern(e.Source)
		}
	}
	if err := putI(int64(w.From)); err != nil {
		return fmt.Errorf("trace: write window bounds: %w", err)
	}
	if err := putI(int64(w.To)); err != nil {
		return fmt.Errorf("trace: write window bounds: %w", err)
	}
	if err := putS(w.Detector); err != nil {
		return fmt.Errorf("trace: write window detector: %w", err)
	}
	if err := putI(int64(w.Eta)); err != nil {
		return fmt.Errorf("trace: write window eta: %w", err)
	}
	if err := putI(int64(w.MinTimeout)); err != nil {
		return fmt.Errorf("trace: write window min timeout: %w", err)
	}
	if err := putU(uint64(len(names))); err != nil {
		return fmt.Errorf("trace: write peer table: %w", err)
	}
	for _, name := range names {
		if err := putS(name); err != nil {
			return fmt.Errorf("trace: write peer table: %w", err)
		}
	}
	if err := putU(uint64(len(w.Samples))); err != nil {
		return fmt.Errorf("trace: write sample count: %w", err)
	}
	var prevSeq, prevSend, prevRecv int64
	for i, s := range w.Samples {
		if err := putU(uint64(idx[s.Peer])); err != nil {
			return fmt.Errorf("trace: write sample %d: %w", i, err)
		}
		if err := putI(s.Seq - prevSeq); err != nil {
			return fmt.Errorf("trace: write sample %d: %w", i, err)
		}
		if err := putI(int64(s.Send) - prevSend); err != nil {
			return fmt.Errorf("trace: write sample %d: %w", i, err)
		}
		if err := putI(int64(s.Recv) - prevRecv); err != nil {
			return fmt.Errorf("trace: write sample %d: %w", i, err)
		}
		prevSeq, prevSend, prevRecv = s.Seq, int64(s.Send), int64(s.Recv)
	}
	if err := putU(uint64(len(w.Events))); err != nil {
		return fmt.Errorf("trace: write event count: %w", err)
	}
	var prevAt int64
	for i, e := range w.Events {
		if err := bw.WriteByte(byte(e.Kind)); err != nil {
			return fmt.Errorf("trace: write event %d: %w", i, err)
		}
		src := uint64(0)
		if e.Source != "" {
			src = uint64(idx[e.Source]) + 1
		}
		if err := putU(src); err != nil {
			return fmt.Errorf("trace: write event %d: %w", i, err)
		}
		if err := putI(int64(e.At) - prevAt); err != nil {
			return fmt.Errorf("trace: write event %d: %w", i, err)
		}
		if err := putI(e.Seq); err != nil {
			return fmt.Errorf("trace: write event %d: %w", i, err)
		}
		prevAt = int64(e.At)
	}
	return bw.Flush()
}

// ReadWindow decodes a window written by WriteWindow. Like ReadBinary it
// never trusts header counts for allocation.
func ReadWindow(src io.Reader) (*Window, error) {
	br := bufio.NewReader(src)
	var head [8]byte
	if _, err := io.ReadFull(br, head[:]); err != nil {
		return nil, fmt.Errorf("trace: read window header: %w", err)
	}
	if head != windowMagic {
		return nil, ErrBadWindowMagic
	}
	getU := func(what string) (uint64, error) {
		v, err := binary.ReadUvarint(br)
		if err != nil {
			return 0, fmt.Errorf("trace: read %s: %w", what, err)
		}
		return v, nil
	}
	getI := func(what string) (int64, error) {
		v, err := binary.ReadVarint(br)
		if err != nil {
			return 0, fmt.Errorf("trace: read %s: %w", what, err)
		}
		return v, nil
	}
	getS := func(what string) (string, error) {
		n, err := getU(what)
		if err != nil {
			return "", err
		}
		if n > maxPeerNameBytes {
			return "", fmt.Errorf("trace: implausible %s length %d", what, n)
		}
		b := make([]byte, n)
		if _, err := io.ReadFull(br, b); err != nil {
			return "", fmt.Errorf("trace: read %s: %w", what, err)
		}
		return string(b), nil
	}
	w := &Window{}
	from, err := getI("window from")
	if err != nil {
		return nil, err
	}
	to, err := getI("window to")
	if err != nil {
		return nil, err
	}
	w.From, w.To = time.Duration(from), time.Duration(to)
	if w.Detector, err = getS("window detector"); err != nil {
		return nil, err
	}
	eta, err := getI("window eta")
	if err != nil {
		return nil, err
	}
	minTO, err := getI("window min timeout")
	if err != nil {
		return nil, err
	}
	w.Eta, w.MinTimeout = time.Duration(eta), time.Duration(minTO)
	nNames, err := getU("peer table count")
	if err != nil {
		return nil, err
	}
	if nNames > maxWindow {
		return nil, fmt.Errorf("trace: implausible peer table length %d", nNames)
	}
	names := make([]string, 0, min(nNames, 4096))
	for i := uint64(0); i < nNames; i++ {
		name, err := getS("peer name")
		if err != nil {
			return nil, err
		}
		names = append(names, name)
	}
	nSamples, err := getU("sample count")
	if err != nil {
		return nil, err
	}
	if nSamples > maxWindow {
		return nil, fmt.Errorf("trace: implausible sample count %d", nSamples)
	}
	w.Samples = make([]Sample, 0, min(nSamples, 4096))
	var prevSeq, prevSend, prevRecv int64
	for i := uint64(0); i < nSamples; i++ {
		pi, err := getU("sample peer")
		if err != nil {
			return nil, err
		}
		if pi >= uint64(len(names)) {
			return nil, fmt.Errorf("trace: sample %d references unknown peer %d", i, pi)
		}
		dSeq, err := getI("sample seq")
		if err != nil {
			return nil, err
		}
		dSend, err := getI("sample send")
		if err != nil {
			return nil, err
		}
		dRecv, err := getI("sample recv")
		if err != nil {
			return nil, err
		}
		prevSeq += dSeq
		prevSend += dSend
		prevRecv += dRecv
		w.Samples = append(w.Samples, Sample{
			Peer: names[pi],
			Seq:  prevSeq,
			Send: time.Duration(prevSend),
			Recv: time.Duration(prevRecv),
		})
	}
	nEvents, err := getU("event count")
	if err != nil {
		return nil, err
	}
	if nEvents > maxWindow {
		return nil, fmt.Errorf("trace: implausible event count %d", nEvents)
	}
	w.Events = make([]nekostat.Event, 0, min(nEvents, 4096))
	var prevAt int64
	for i := uint64(0); i < nEvents; i++ {
		kind, err := br.ReadByte()
		if err != nil {
			return nil, fmt.Errorf("trace: read event %d: %w", i, err)
		}
		src, err := getU("event source")
		if err != nil {
			return nil, err
		}
		if src > uint64(len(names)) {
			return nil, fmt.Errorf("trace: event %d references unknown peer %d", i, src-1)
		}
		dAt, err := getI("event at")
		if err != nil {
			return nil, err
		}
		seq, err := getI("event seq")
		if err != nil {
			return nil, err
		}
		prevAt += dAt
		e := nekostat.Event{Kind: nekostat.Kind(kind), At: time.Duration(prevAt), Seq: seq}
		if src > 0 {
			e.Source = names[src-1]
		}
		w.Events = append(w.Events, e)
	}
	return w, nil
}

// maxPeerNameBytes bounds one string field in the window format.
const maxPeerNameBytes = 1 << 16
