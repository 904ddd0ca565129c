// Command wanfd runs the offline half of a failure-detector experiment: it
// simulates the paper's experiments, and it recomputes QoS from what a run
// or a live monitor recorded. Each analysis is a subcommand with its own
// flags (see "wanfd <subcommand> -h"):
//
//	wanfd qos -baselines                # Figures 4–8: the 30 detectors' QoS (§5.2)
//	wanfd qos -params                   # Table 5: the experiment parameters
//	wanfd pushpull                      # §2.2: push vs pull monitoring styles
//	wanfd sweep -margin CI              # §5.2: a safety-margin parameter sweep
//	wanfd loss                          # the loss-rate ablation
//	wanfd accuracy -grid                # Table 3: predictor msqerr, ARIMA order search
//	wanfd wan -trace-out d.trc          # Table 4: the channel, and its delay trace
//	wanfd events ev.run0.jsonl          # QoS recomputed from a qos -events timeline
//	wanfd replay -verify incident.win   # a window from fdmonitor's /export, replayed
//	wanfd plan -bound 2s -tmr 1h        # a constant-timeout detector from QoS targets
//	wanfd consensus -runs 10            # detector QoS → consensus latency
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"wanfd/internal/core"
	"wanfd/internal/trace"
	"wanfd/internal/wan"
)

// A command is one subcommand. Its flags function registers the
// subcommand's flags on fs — only the flags it honours — and returns the
// action to run once fs is parsed.
type command struct {
	name, synopsis string
	flags          func(fs *flag.FlagSet) func(stdout io.Writer) error
}

var commands = []command{
	{"qos", "the 30-detector QoS experiment: Figures 4–8 and Table 5 (§5.2)", qosCmd},
	{"pushpull", "push vs pull monitoring styles over one channel (§2.2)", pushpullCmd},
	{"sweep", "a safety-margin parameter sweep: T_MR against T_D (§5.2)", sweepCmd},
	{"loss", "the loss-rate ablation: one delay process, rising loss", lossCmd},
	{"accuracy", "predictor accuracy (Table 3) and the ARIMA order search (§5.1)", accuracyCmd},
	{"events", "recompute QoS from an exported JSON Lines event timeline", eventsCmd},
	{"replay", "replay an exported QoS-history window through the detector grid", replayCmd},
	{"wan", "characterize the simulated WAN channel (Table 4)", wanCmd},
	{"plan", "size a constant-timeout detector from QoS targets", planCmd},
	{"consensus", "failure-detector QoS → consensus latency", consensusCmd},
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run executes one command line and returns its exit status: 0 on success
// or -h, 1 when the subcommand fails, 2 when the command line does not
// parse.
func run(args []string, stdout, stderr io.Writer) int {
	cmd, fs := lookup(args)
	if fs == nil {
		fmt.Fprintln(stderr, "usage: wanfd <subcommand> [flags] [args]\n\nsubcommands:")
		for _, c := range commands {
			fmt.Fprintf(stderr, "  %-10s %s\n", c.name, c.synopsis)
		}
		return 2
	}
	fs.SetOutput(stderr)
	action := cmd.flags(fs)
	if err := fs.Parse(args[1:]); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	if err := action(stdout); err != nil {
		fmt.Fprintf(stderr, "wanfd %s: %v\n", cmd.name, err)
		return 1
	}
	return 0
}

// lookup finds the subcommand named by args[0] and a fresh flag set for
// it; the flag set is nil when args names no registered subcommand.
func lookup(args []string) (command, *flag.FlagSet) {
	for _, c := range commands {
		if len(args) > 0 && args[0] == c.name {
			return c, flag.NewFlagSet("wanfd "+c.name, flag.ContinueOnError)
		}
	}
	return command{}, nil
}

// presetFlag registers -preset, the simulated WAN channel.
func presetFlag(fs *flag.FlagSet) *string {
	return fs.String("preset", "italy-japan", fmt.Sprintf("channel preset, one of %v", presets))
}

// channelFlags registers the -preset and -seed flags of the subcommands
// that simulate a WAN channel outside the Table 5 experiments.
func channelFlags(fs *flag.FlagSet) (preset *string, seed *int64) {
	return presetFlag(fs), fs.Int64("seed", 1, "random seed")
}

// etaFlag registers the simulated heartbeat period -eta.
func etaFlag(fs *flag.FlagSet) *time.Duration {
	return fs.Duration("eta", time.Second, "heartbeat period η")
}

// traceFlag registers -trace, a recorded delay trace to replay.
func traceFlag(fs *flag.FlagSet) *string {
	return fs.String("trace", "", "replay a recorded delay trace (from wanfd wan -trace-out) instead of the preset channel")
}

// presets are the channel presets -preset accepts.
var presets = []wan.Preset{wan.PresetItalyJapan, wan.PresetLAN, wan.PresetLossyMobile, wan.PresetBottleneck}

// parsePreset maps a -preset name to the channel preset.
func parsePreset(s string) (wan.Preset, error) {
	for _, p := range presets {
		if p.String() == s {
			return p, nil
		}
	}
	return 0, fmt.Errorf("unknown preset %q (want one of %v)", s, presets)
}

// loadTrace reads a delay trace file — text format for a .txt extension,
// the binary format otherwise. An empty path returns nil with no error.
func loadTrace(path string) ([]time.Duration, error) {
	if path == "" {
		return nil, nil
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	if filepath.Ext(path) == ".txt" {
		return trace.ReadText(f)
	}
	return trace.ReadBinary(f)
}

// saveTrace writes a delay trace file in the format loadTrace reads back.
func saveTrace(path string, delays []time.Duration) error {
	return writeFile(path, func(w io.Writer) error {
		if filepath.Ext(path) == ".txt" {
			return trace.WriteText(w, delays)
		}
		return trace.WriteBinary(w, delays)
	})
}

// writeFile creates path and fills it with write.
func writeFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	err = write(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// parseFloats parses the comma-separated numbers given to the flag named
// flagName; an empty list is nil.
func parseFloats(flagName, s string) ([]float64, error) {
	if s == "" {
		return nil, nil
	}
	var out []float64
	for _, part := range strings.Split(s, ",") {
		v, err := strconv.ParseFloat(strings.TrimSpace(part), 64)
		if err != nil {
			return nil, fmt.Errorf("-%s: bad number %q: %w", flagName, part, err)
		}
		out = append(out, v)
	}
	return out, nil
}

// parseCombos parses comma-separated PREDICTOR+MARGIN combinations, each
// checked to build.
func parseCombos(s string) ([]core.Combo, error) {
	var out []core.Combo
	for _, part := range strings.Split(s, ",") {
		pred, margin, ok := strings.Cut(strings.TrimSpace(part), "+")
		if !ok {
			return nil, fmt.Errorf("combination %q is not of the form PREDICTOR+MARGIN", part)
		}
		c := core.Combo{Predictor: pred, Margin: margin}
		if _, _, err := c.Build(); err != nil {
			return nil, err
		}
		out = append(out, c)
	}
	return out, nil
}
