//fdlint:file-ignore clockuse spans time calls into each layer from outside, on the real wall clock

package main

import (
	"bufio"
	"encoding/json"
	"os"
	"time"
)

// span is one timed call into a layer. Spans of one operation share Op, the
// id of the operation's root span; Parent is the span that made the call
// (0 for a root). Times are nanoseconds since the log was created.
type span struct {
	ID     int64  `json:"id"`
	Op     int64  `json:"op_id"`
	Parent int64  `json:"parent"`
	Layer  string `json:"layer"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// spanLog keeps a traced run's spans in memory until the run ends. It is
// used by one goroutine at a time (the sampler during the socket phase, the
// stage harness after it), so it takes no lock.
type spanLog struct {
	base  time.Time
	spans []span
}

func newSpanLog() *spanLog {
	return &spanLog{base: time.Now(), spans: make([]span, 0, 1<<16)}
}

// begin opens a span under parent (0 starts a new operation) and returns
// its id.
func (l *spanLog) begin(layer, name string, parent int64) int64 {
	id := int64(len(l.spans) + 1)
	op := id
	if parent != 0 {
		op = l.spans[parent-1].Op
	}
	l.spans = append(l.spans, span{ID: id, Op: op, Parent: parent, Layer: layer, Name: name})
	l.spans[id-1].Start = int64(time.Since(l.base))
	return id
}

func (l *spanLog) end(id int64) {
	l.spans[id-1].End = int64(time.Since(l.base))
}

// write stores the spans as JSON lines.
func (l *spanLog) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range l.spans {
		if err := enc.Encode(&l.spans[i]); err != nil {
			_ = f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		_ = f.Close()
		return err
	}
	return f.Close()
}
