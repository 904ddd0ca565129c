package main

import (
	"bytes"
	"flag"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"

	"wanfd/internal/core"
	"wanfd/internal/sim"
	"wanfd/internal/store"
	"wanfd/internal/trace"
	"wanfd/internal/wan"
)

// wanfd runs one command line in-process and returns its exit status,
// stdout and stderr.
func wanfd(args ...string) (int, string, string) {
	var stdout, stderr bytes.Buffer
	code := run(args, &stdout, &stderr)
	return code, stdout.String(), stderr.String()
}

// TestSubcommands runs every subcommand with small parameters and checks
// its exit status and one line of its output.
func TestSubcommands(t *testing.T) {
	dir := t.TempDir()
	trc, ev := filepath.Join(dir, "d.trc"), filepath.Join(dir, "ev")
	for _, tc := range []struct {
		args []string
		code int
		want string // in stdout or stderr
	}{
		{[]string{"wan", "-samples", "2000", "-acf", "2", "-trace-out", trc}, 0, " delays to " + trc},
		{[]string{"wan", "-preset", "bottleneck", "-samples", "2000"}, 0, "Table 4 — Characteristics of the bottleneck channel"},
		{[]string{"qos", "-params"}, 0, "MTTC"},
		{[]string{"qos", "-runs", "1", "-cycles", "1000", "-trace", trc, "-events", ev}, 0, "wrote 1 event timelines to " + ev + ".run*.jsonl"},
		{[]string{"pushpull", "-cycles", "500"}, 0, "Push vs pull"},
		{[]string{"sweep", "-params", "1,x"}, 1, `wanfd sweep: -params: bad number "x"`},
		{[]string{"qos", "-accrual", "2,y"}, 1, `wanfd qos: -accrual: bad number "y"`},
		{[]string{"qos", "-preset", "mars"}, 1, `unknown preset "mars"`},
		{[]string{"sweep", "-preset", "mars"}, 1, `unknown preset "mars"`},
		{[]string{"loss", "-preset", "lan"}, 2, "flag provided but not defined: -preset"},
		{[]string{"loss", "-runs", "3"}, 2, "flag provided but not defined: -runs"},
		{[]string{"pushpull", "-trace", trc}, 2, "flag provided but not defined: -trace"},
		{[]string{"pushpull", "-runs", "3"}, 2, "flag provided but not defined: -runs"},
		{[]string{"sweep", "-skew", "1ms"}, 2, "flag provided but not defined: -skew"},
		{[]string{"sweep", "-baselines"}, 2, "flag provided but not defined: -baselines"},
		{[]string{"qos", "-pushpull"}, 2, "flag provided but not defined: -pushpull"},
		{[]string{"loss", "-cycles", "10"}, 1, "wanfd loss: experiment: run length 10s not longer than warmup 1m0s"},
		{[]string{"pushpull", "-eta", "-1s"}, 1, "wanfd pushpull: experiment: non-positive heartbeat period -1s"},
		{[]string{"loss", "-eta", "-1s"}, 1, "wanfd loss: experiment: non-positive heartbeat period -1s"},
		{[]string{"accuracy", "-samples", "2000", "-grid", "-maxp", "1", "-maxd", "0", "-maxq", "0", "-top", "1"}, 0, "ARIMA("},
		{[]string{"accuracy", "-grid", "-top", "-1"}, 1, "wanfd accuracy: -top must be >= 0, got -1"},
		{[]string{"events", ev + ".run0.jsonl"}, 0, "detector"},
		{[]string{"events"}, 1, "usage: wanfd events"},
		{[]string{"replay"}, 1, "usage: wanfd replay"},
		{[]string{"plan", "-bound", "2s", "-tmr", "1h"}, 0, "predicted QoS:"},
		{[]string{"consensus", "-runs", "1", "-combos", "LAST+JAC_low"}, 0, "LAST+JAC_low"},
		{[]string{"consensus", "-runs", "0"}, 1, "wanfd consensus: -runs must be >= 1, got 0"},
		{[]string{"consensus", "-combos", "LAST+NOPE"}, 1, "NOPE"},
		{[]string{"consensus", "-combos", "LAST"}, 1, `"LAST" is not of the form PREDICTOR+MARGIN`},
		{[]string{"plan", "-no-such-flag"}, 2, "flag provided but not defined"},
		{[]string{"plan", "-h"}, 0, "-bound"},
		{[]string{"fdqos"}, 2, "usage: wanfd <subcommand>"},
		{nil, 2, "consensus"},
	} {
		code, stdout, stderr := wanfd(tc.args...)
		if code != tc.code || !strings.Contains(stdout+stderr, tc.want) {
			t.Errorf("wanfd %s: exit %d, want %d with %q in\n%s%s", strings.Join(tc.args, " "), code, tc.code, tc.want, stdout, stderr)
		}
	}
}

// recorderTap feeds a detector's transitions to the durable store, as a
// live monitor's suspicion listener does.
type recorderTap struct{ rec *store.PeerRecorder }

func (r recorderTap) OnSuspect(_ string, at time.Duration) { r.rec.Transition(true, at) }
func (r recorderTap) OnTrust(_ string, at time.Duration)   { r.rec.Transition(false, at) }

// TestReplayVerify records a window on a virtual clock — a live LAST+JAC_med
// detector with a durable store attached, heartbeats whose periodic 2.5 s
// spikes cause false suspicions — and checks that replay -verify finds it
// reproduced bit-identically.
func TestReplayVerify(t *testing.T) {
	const n, eta, minTO = 300, time.Second, 10 * time.Millisecond
	combo := core.Combo{Predictor: "LAST", Margin: "JAC_med"}
	eng := sim.NewEngine()
	st, err := store.Open(store.Config{Dir: t.TempDir(), Clock: eng})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	rec := st.Recorder("tokyo")
	pred, margin, err := combo.Build()
	if err != nil {
		t.Fatal(err)
	}
	det, err := core.NewDetector(core.DetectorConfig{
		Name: combo.Name(), Predictor: pred, Margin: margin, Eta: eta, Clock: eng,
		Listener: recorderTap{rec}, MinTimeout: minTO, Sample: rec,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		send, delay := time.Duration(i)*eta, 80*time.Millisecond+time.Duration(i%13)*5*time.Millisecond
		if i%67 == 33 {
			delay = 2500 * time.Millisecond
		}
		eng.At(send+delay, func() { det.OnHeartbeat(int64(i), send, send+delay) })
	}
	if err := eng.Run((n + 2) * time.Second); err != nil {
		t.Fatal(err)
	}
	det.Stop()
	w, err := st.Export(0, (n+2)*time.Second, "")
	if err != nil {
		t.Fatal(err)
	}
	if len(w.Events) == 0 {
		t.Fatal("the window records no suspicions; the check would be vacuous")
	}
	w.Detector, w.Eta, w.MinTimeout = combo.Name(), eta, minTO
	path := filepath.Join(t.TempDir(), "incident.win")
	if err := writeFile(path, func(f io.Writer) error { return trace.WriteWindow(f, w) }); err != nil {
		t.Fatal(err)
	}

	code, stdout, stderr := wanfd("replay", "-verify", path)
	if code != 0 || !strings.Contains(stdout, "fidelity check passed: LAST+JAC_med replays bit-identically") {
		t.Fatalf("replay -verify: exit %d\n%s%s", code, stdout, stderr)
	}
}

// TestDocumentedInvocations keeps the docs in step with the command: every
// "./cmd/wanfd <subcommand> …" in README.md, EXPERIMENTS.md and the
// Makefile must name a registered subcommand whose flags parse.
func TestDocumentedInvocations(t *testing.T) {
	invocation := regexp.MustCompile("\\./cmd/wanfd +([^\\s`#]+)([^`#\\n]*)")
	for _, name := range []string{"README.md", "EXPERIMENTS.md", "Makefile"} {
		doc, err := os.ReadFile(filepath.Join("..", "..", name))
		if err != nil {
			t.Fatal(err)
		}
		matches := invocation.FindAllStringSubmatch(string(doc), -1)
		if len(matches) == 0 {
			t.Errorf("%s documents no wanfd invocation", name)
		}
		for _, m := range matches {
			cmd, fs := lookup([]string{m[1]})
			if fs == nil {
				t.Errorf("%s: %q: no subcommand %q", name, m[0], m[1])
				continue
			}
			fs.SetOutput(io.Discard)
			cmd.flags(fs)
			var args []string
			for _, a := range strings.Fields(m[2]) {
				args = append(args, strings.Trim(a, `"'`))
			}
			if err := fs.Parse(args); err != nil {
				t.Errorf("%s: %q: %v", name, m[0], err)
			}
		}
	}
}

// TestFlagSurface pins every subcommand's flag names and defaults.
func TestFlagSurface(t *testing.T) {
	want := map[string]string{
		"qos":       "accrual= baselines=false ci=false csv= cycles=10000 eta=1s events= mttc=5m0s params=false plot=false preset=italy-japan runs=13 seed=1 skew=0s trace= ttr=30s",
		"pushpull":  "cycles=10000 eta=1s mttc=5m0s preset=italy-japan seed=1 ttr=30s",
		"sweep":     "cycles=10000 eta=1s margin=CI mttc=5m0s params= predictor=LAST preset=italy-japan runs=13 seed=1 ttr=30s",
		"loss":      "cycles=10000 eta=1s mttc=5m0s seed=1 ttr=30s",
		"accuracy":  "extended=false grid=false maxd=2 maxp=3 maxq=2 preset=italy-japan samples=100000 seed=1 stability=0 top=10 trace=",
		"events":    "detector= end=0s warmup=1m0s",
		"replay":    "combo= eta=0s min-timeout=0s peer= slack=0s sort=false tick=0s verify=false",
		"wan":       "acf=0 eta=1s preset=italy-japan samples=100000 seed=1 trace-out=",
		"plan":      "bound=2s loss=0.004 mean=207ms stddev=9ms tm=0s tmr=0s",
		"consensus": "combos=LAST+JAC_low,LAST+JAC_med,ARIMA+CI_low,MEAN+CI_high crash=100ms eta=1s n=3 preset=italy-japan runs=5 seed=1",
	}
	total := 0
	for _, c := range commands {
		fs := flag.NewFlagSet(c.name, flag.ContinueOnError)
		c.flags(fs)
		var got []string
		fs.VisitAll(func(f *flag.Flag) { got = append(got, f.Name+"="+f.DefValue) })
		if g := strings.Join(got, " "); g != want[c.name] {
			t.Errorf("%s flags:\n got %s\nwant %s", c.name, g, want[c.name])
		}
		total += len(got)
	}
	if total != 78 || len(commands) != len(want) {
		t.Errorf("%d flags over %d subcommands, want 78 over %d", total, len(commands), len(want))
	}
}

func TestParsePreset(t *testing.T) {
	for name, want := range map[string]wan.Preset{
		"italy-japan":  wan.PresetItalyJapan,
		"lan":          wan.PresetLAN,
		"lossy-mobile": wan.PresetLossyMobile,
		"bottleneck":   wan.PresetBottleneck,
	} {
		got, err := parsePreset(name)
		if err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		if got != want {
			t.Errorf("%s = %v, want %v", name, got, want)
		}
	}
	if _, err := parsePreset("nope"); err == nil {
		t.Error("unknown preset should fail")
	}
	// Every advertised preset parses.
	for _, p := range presets {
		if _, err := parsePreset(p.String()); err != nil {
			t.Errorf("advertised preset %q does not parse: %v", p, err)
		}
	}
}

func TestLoadTraceEmpty(t *testing.T) {
	ds, err := loadTrace("")
	if err != nil || ds != nil {
		t.Errorf("empty path: %v, %v", ds, err)
	}
	if _, err := loadTrace(filepath.Join(t.TempDir(), "missing.trc")); err == nil {
		t.Error("missing file should fail")
	}
}

func TestSaveLoadTraceRoundTrip(t *testing.T) {
	delays := []time.Duration{
		192 * time.Millisecond,
		340 * time.Millisecond,
		206 * time.Millisecond,
	}
	for _, name := range []string{"t.trc", "t.txt"} {
		path := filepath.Join(t.TempDir(), name)
		if err := saveTrace(path, delays); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		got, err := loadTrace(path)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(got) != len(delays) {
			t.Fatalf("%s: len %d, want %d", name, len(got), len(delays))
		}
		for i := range delays {
			diff := got[i] - delays[i]
			if diff < -time.Microsecond || diff > time.Microsecond {
				t.Errorf("%s: delay %d = %v, want %v", name, i, got[i], delays[i])
			}
		}
	}
}

func TestSaveTraceBadPath(t *testing.T) {
	if err := saveTrace(filepath.Join(t.TempDir(), "no", "such", "dir", "x.trc"), nil); err == nil {
		t.Error("unwritable path should fail")
	}
}
