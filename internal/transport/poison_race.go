//go:build race

package transport

import "wanfd/internal/neko"

// raceEnabled lets tests relax zero-allocation assertions that poisoning
// deliberately breaks (nil'ing Payload forces a reallocation on reuse).
const raceEnabled = true

// poison overwrites delivered messages with sentinel garbage once the
// receiver has returned. A receiver that illegally retained a pointer will
// observe the sentinels (and the race detector will flag the concurrent
// write), turning a silent aliasing bug into a loud test failure.
func poison(ms []*neko.Message) {
	for _, m := range ms {
		m.From = -999
		m.To = -999
		m.Type = 0xEF
		m.Seq = -1 << 60
		m.SentAt = -1 << 60
		m.Payload = nil
		m.Handle = 1<<64 - 2 // even generation: no arena index is ever this
	}
}
