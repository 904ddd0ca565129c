// Package transport implements the real-network driver of the framework: a
// UDP transport for heartbeat messages (the paper's links are UDP — fair
// lossy: drops but never duplicates or forges), plus an in-band NTP-style
// clock-offset exchange so a monitor can discharge the paper's
// synchronized-clocks assumption against the host it watches.
package transport

import (
	"encoding/binary"
	"errors"
	"fmt"

	"wanfd/internal/neko"
)

// Message types used by the transport's own time-sync exchange.
const (
	// MsgTimeReq asks a peer for its clock readings.
	MsgTimeReq neko.MessageType = 200 + iota
	// MsgTimeResp carries the peer's receive and send timestamps.
	MsgTimeResp
)

// Wire format (big endian):
//
//	magic   [2]byte  "WF"
//	version byte     1
//	type    byte     neko.MessageType
//	from    int32    sender process id
//	to      int32    destination process id
//	seq     int64    sequence number
//	sentAt  int64    send timestamp, Unix nanoseconds
//	plen    uint16   payload length
//	payload [plen]byte
const (
	headerSize    = 2 + 1 + 1 + 4 + 4 + 8 + 8 + 2
	wireVersion   = 1
	maxPayload    = 1200 // stay under typical path MTU
	maxPacketSize = headerSize + maxPayload
)

var wireMagic = [2]byte{'W', 'F'}

// Errors returned by Decode.
var (
	ErrTruncated   = errors.New("transport: truncated packet")
	ErrBadPacket   = errors.New("transport: bad magic or version")
	ErrPayloadSize = errors.New("transport: payload too large")
)

// Encode serializes a message for the wire. sentUnixNano is the wall-clock
// send timestamp (the shared NTP time base of the paper).
func Encode(buf []byte, m *neko.Message, sentUnixNano int64) ([]byte, error) {
	if len(m.Payload) > maxPayload {
		return nil, ErrPayloadSize
	}
	need := headerSize + len(m.Payload)
	if cap(buf) < need {
		buf = make([]byte, need)
	}
	buf = buf[:need]
	copy(buf[0:2], wireMagic[:])
	buf[2] = wireVersion
	buf[3] = byte(m.Type)
	binary.BigEndian.PutUint32(buf[4:8], uint32(int32(m.From)))
	binary.BigEndian.PutUint32(buf[8:12], uint32(int32(m.To)))
	binary.BigEndian.PutUint64(buf[12:20], uint64(m.Seq))
	binary.BigEndian.PutUint64(buf[20:28], uint64(sentUnixNano))
	binary.BigEndian.PutUint16(buf[28:30], uint16(len(m.Payload)))
	copy(buf[headerSize:], m.Payload)
	return buf, nil
}

// Decode parses a wire packet. It returns the message (with SentAt left
// zero — the caller maps the returned Unix timestamp onto its own time
// base) and the sender's wall-clock send time.
func Decode(pkt []byte) (*neko.Message, int64, error) {
	m := &neko.Message{}
	sent, err := DecodeInto(m, pkt)
	if err != nil {
		return nil, 0, err
	}
	return m, sent, nil
}

// DecodeInto parses a wire packet into an existing message, overwriting
// every field, and returns the sender's wall-clock send time (SentAt is
// left zero — the caller maps the Unix timestamp onto its own time base).
// The payload is copied into m's payload buffer, growing it only when the
// capacity is too small, so a reused message decodes with zero allocations
// once warm.
//
// Aliasing contract: the returned message never references pkt. The
// receive loops reuse one packet buffer across datagrams, so any sub-slice
// of pkt retained here would be silently corrupted by the next read;
// TestDecodeNeverAliasesPacket pins this.
func DecodeInto(m *neko.Message, pkt []byte) (int64, error) {
	if len(pkt) < headerSize {
		return 0, ErrTruncated
	}
	if pkt[0] != wireMagic[0] || pkt[1] != wireMagic[1] || pkt[2] != wireVersion {
		return 0, ErrBadPacket
	}
	plen := int(binary.BigEndian.Uint16(pkt[28:30]))
	if plen > maxPayload {
		return 0, ErrPayloadSize
	}
	if len(pkt) < headerSize+plen {
		return 0, ErrTruncated
	}
	m.Type = neko.MessageType(pkt[3])
	m.From = neko.ProcessID(int32(binary.BigEndian.Uint32(pkt[4:8])))
	m.To = neko.ProcessID(int32(binary.BigEndian.Uint32(pkt[8:12])))
	m.Seq = int64(binary.BigEndian.Uint64(pkt[12:20]))
	m.SentAt = 0
	m.Handle = 0
	m.Payload = append(m.Payload[:0], pkt[headerSize:headerSize+plen]...)
	if plen == 0 {
		// Keep the nil/empty distinction of the old decoder: a payload-less
		// packet yields a nil payload, not a zero-length slice, unless the
		// message already carries a reusable buffer.
		if cap(m.Payload) == 0 {
			m.Payload = nil
		}
	}
	sent := int64(binary.BigEndian.Uint64(pkt[20:28]))
	return sent, nil
}

// timeSyncPayload carries the NTP exchange timestamps (Unix nanoseconds).
// A request carries T1; a response echoes T1 and adds T2 (server receive)
// and T3 (server send).
type timeSyncPayload struct {
	T1, T2, T3 int64
}

func encodeTimeSync(p timeSyncPayload) []byte {
	buf := make([]byte, 24)
	binary.BigEndian.PutUint64(buf[0:8], uint64(p.T1))
	binary.BigEndian.PutUint64(buf[8:16], uint64(p.T2))
	binary.BigEndian.PutUint64(buf[16:24], uint64(p.T3))
	return buf
}

func decodeTimeSync(b []byte) (timeSyncPayload, error) {
	if len(b) < 24 {
		return timeSyncPayload{}, fmt.Errorf("transport: time-sync payload %d bytes, want 24", len(b))
	}
	return timeSyncPayload{
		T1: int64(binary.BigEndian.Uint64(b[0:8])),
		T2: int64(binary.BigEndian.Uint64(b[8:16])),
		T3: int64(binary.BigEndian.Uint64(b[16:24])),
	}, nil
}
