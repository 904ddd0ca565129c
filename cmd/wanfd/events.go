package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"time"

	"wanfd/internal/nekostat"
)

// eventsCmd recomputes failure-detector QoS from a raw event timeline (the
// JSON Lines of qos -events or fdmonitor's /events): the offline half of
// the NekoStat workflow, so a recorded run can be re-analyzed with other
// windows or detectors without simulating it again.
func eventsCmd(fs *flag.FlagSet) func(io.Writer) error {
	var (
		detector = fs.String("detector", "", "only this detector (default: all present)")
		warmup   = fs.Duration("warmup", 60*time.Second, "window start")
		end      = fs.Duration("end", 0, "window end (0 = last event + 1s)")
	)
	return func(w io.Writer) error {
		if fs.NArg() != 1 {
			return fmt.Errorf("usage: wanfd events [flags] <events.jsonl>")
		}
		f, err := os.Open(fs.Arg(0))
		if err != nil {
			return err
		}
		events, err := nekostat.ReadEvents(f)
		_ = f.Close()
		if err != nil {
			return err
		}
		if len(events) == 0 {
			return fmt.Errorf("no events in %s", fs.Arg(0))
		}

		windowEnd := *end
		if windowEnd == 0 {
			for _, e := range events {
				windowEnd = max(windowEnd, e.At)
			}
			windowEnd += time.Second
		}

		detectors := map[string]bool{}
		for _, e := range events {
			if e.Source != "" && (e.Kind == nekostat.KindStartSuspect || e.Kind == nekostat.KindEndSuspect) {
				detectors[e.Source] = true
			}
		}
		var names []string
		if *detector != "" {
			if !detectors[*detector] {
				return fmt.Errorf("detector %q has no events in the log", *detector)
			}
			names = []string{*detector}
		} else {
			for n := range detectors {
				names = append(names, n)
			}
			sort.Strings(names)
		}

		fmt.Fprintf(w, "%d events, window [%v, %v]\n\n", len(events), *warmup, windowEnd)
		fmt.Fprintf(w, "%-18s %10s %10s %10s %10s %10s %9s\n",
			"detector", "T_D ms", "T_D^U ms", "T_M ms", "T_MR ms", "P_A", "mistakes")
		for _, name := range names {
			q, err := nekostat.QoSFromEvents(events, name, *warmup, windowEnd)
			if err != nil {
				return fmt.Errorf("qos of %s: %w", name, err)
			}
			fmt.Fprintf(w, "%-18s %10.1f %10.1f %10.1f %10.1f %10.6f %9d\n",
				name, q.TD.Mean, q.TDU, q.TM.Mean, q.TMR.Mean, q.PA, q.Mistakes)
		}
		return nil
	}
}
