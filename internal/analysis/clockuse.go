package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// ClockUse forbids reading the wall clock directly: heartbeat timestamps
// must flow through the injected sim.Clock (the Neko real/simulated
// duality), so the same detector code is bit-identical under the
// simulator and on a WAN. Only the clock boundary packages — the clock
// implementations themselves — may touch the time package's clock
// readers.
var ClockUse = &Analyzer{
	Name: "clockuse",
	Doc:  "direct time.Now/Since/Until/After outside the clock boundary packages",
	Run:  runClockUse,
}

// clockExemptSuffixes are the import-path suffixes of the clock boundary:
// internal/sim implements the real and simulated clocks, internal/clock
// the NTP-style offset estimation they are corrected with, internal/sched
// is the timing-wheel scheduler, itself a sim.Clock (its real-mode driver
// parks on raw runtime timers).
//
// internal/store is deliberately NOT on this list: every instant the
// durable QoS store persists is a detector timestamp on the injected
// clock's timeline, so a wall-clock read there would mix time bases in
// the on-disk record (and break replay fidelity). Its retention policy is
// data-driven (age measured against the newest record) for exactly this
// reason.
//
// internal/arena is likewise NOT exempt, even though it looks like pure
// memory infrastructure: the arena holds peer records whose fields are
// detector state, and its slot lifecycle is tracked by generation stamps,
// never timestamps — a wall-clock read there has no legitimate purpose.
var clockExemptSuffixes = []string{
	"internal/sim",
	"internal/clock",
	"internal/sched",
}

// forbiddenTimeFuncs are the wall-clock readers of package time. Timers
// and tickers driving purely cosmetic output (log stamping intervals)
// stay legal; anything feeding detection must use sim.Clock.AfterFunc.
var forbiddenTimeFuncs = map[string]bool{
	"Now":   true,
	"Since": true,
	"Until": true,
	"After": true,
}

func runClockUse(pass *Pass) {
	for _, suffix := range clockExemptSuffixes {
		if pass.Pkg.Path == suffix || strings.HasSuffix(pass.Pkg.Path, "/"+suffix) {
			return
		}
	}
	info := pass.Pkg.Info
	for _, f := range pass.Pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok || !forbiddenTimeFuncs[sel.Sel.Name] {
				return true
			}
			id, ok := sel.X.(*ast.Ident)
			if !ok {
				return true
			}
			pn, ok := info.Uses[id].(*types.PkgName)
			if !ok || pn.Imported().Path() != "time" {
				return true
			}
			pass.Report(sel.Pos(),
				"direct time.%s outside the clock boundary; route through the injected sim.Clock",
				sel.Sel.Name)
			return true
		})
	}
}
