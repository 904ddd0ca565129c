//go:build !race

package transport

import "wanfd/internal/neko"

// raceEnabled reports whether the race-detector build (and its message
// poisoning) is active.
const raceEnabled = false

// poison is a no-op outside race builds: a batch slot keeps its payload
// capacity so the receive path stays allocation-free. DecodeInto
// overwrites every field, so no reset is needed for correctness.
func poison([]*neko.Message) {}
