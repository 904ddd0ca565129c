package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strings"
)

// metricDef names one end-to-end metric: its unit, which way is better,
// and the share of the baseline median by which it may get worse before a
// change counts as a regression.
type metricDef struct {
	name, unit string
	higher     bool
	bound      float64
	// simOnly metrics are reported by paper_sim alone; every other one is
	// reported by every socket workload.
	simOnly bool
}

// endToEnd is the set of metrics a user of the system sees. Later issues
// quote these names. The socket workloads report all but sim_updates_per_s;
// paper_sim reports setup_s, monitor_cpu_us_per_hb and sim_updates_per_s.
// Lost heartbeats are not a metric here but failed operations: a run that
// loses any is incorrect, which is stricter than a bound on a ratio.
//
// The gated set is what the reference host can resolve, not what one would
// like to gate. Its two vCPUs share a physical machine with other guests,
// and for minutes at a time the monitor's CPU runs the same code up to 40 %
// slower. Whatever a queue amplifies then spreads wider over ten runs of
// one commit than any bound the contract allows: the trust median and p99
// (most probes meet a monitor that is asleep or still busy with the
// datagrams before theirs, so these are wake-up and queueing figures), and
// the detect median under rack_storm's 1,024 simultaneous expiries. Those
// are printed as diagnostics. Gated are the second percentile of trust
// latency, which is the ingest path a datagram takes when the monitor is
// awake and nothing is queued ahead of it, and the detect p99, which the
// wheel's tick pins (README, "Recorded baseline").
var endToEnd = []metricDef{
	{name: "setup_s", unit: "s", bound: 0.25},
	{name: "trust_latency_us_p02", unit: "us", bound: 0.25},
	{name: "detect_lag_us_p99", unit: "us", bound: 0.25},
	{name: "storm_clear_ms", unit: "ms", bound: 0.25},
	{name: "monitor_cpu_us_per_hb", unit: "us", bound: 0.25},
	{name: "heap_bytes_per_peer", unit: "B", bound: 0.03},
	{name: "sim_updates_per_s", unit: "1/s", higher: true, bound: 0.10, simOnly: true},
}

func findMetric(name string) (metricDef, bool) {
	for _, m := range endToEnd {
		if m.name == name {
			return m, true
		}
	}
	return metricDef{}, false
}

// metric is one reported value: the median over the run's undisturbed
// segments (or repetitions), with the extremes and the sample count behind
// it.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	Min   float64 `json:"min,omitempty"`
	Max   float64 `json:"max,omitempty"`
	// Samples is the number of observations the value rests on (latency
	// samples, heartbeats, repetitions); Segments how many segment values
	// the median was taken over.
	Samples  int `json:"samples,omitempty"`
	Segments int `json:"segments,omitempty"`
	// PerSegment holds the segment values themselves.
	PerSegment []float64 `json:"per_segment,omitempty"`
}

type metricSet map[string]metric

func (ms metricSet) put(name, unit string, s series, samples int) {
	med, lo, hi := s.summary()
	if math.IsNaN(med) {
		return
	}
	m := metric{Value: med, Unit: unit, Min: lo, Max: hi, Samples: samples, Segments: len(s)}
	if len(s) > 1 {
		m.PerSegment = s
	}
	ms[name] = m
}

func (ms metricSet) scalar(name, unit string, v float64) {
	if !math.IsNaN(v) && !math.IsInf(v, 0) {
		ms[name] = metric{Value: v, Unit: unit}
	}
}

// result is one run of one workload.
type result struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Seconds  int    `json:"seconds"`
	Traced   bool   `json:"traced"`
	// Correct is false when the program's outputs were wrong: a probe
	// cycle misclassified, heartbeats lost, the paper_sim digest off.
	Correct   bool             `json:"correct"`
	Attempted int64            `json:"attempted"`
	Failed    int64            `json:"failed"`
	Failures  map[string]int64 `json:"failures,omitempty"`
	EndToEnd  metricSet        `json:"end_to_end"`
	PerLayer  metricSet        `json:"per_layer,omitempty"`
	// Diagnostic values are printed but never gated.
	Diagnostic metricSet `json:"diagnostic,omitempty"`
	Notes      []string  `json:"notes,omitempty"`
}

func newResult(w workload, cfg runConfig) *result {
	return &result{
		Workload: w.name, Seed: cfg.seed, Seconds: cfg.seconds, Traced: cfg.traced(),
		Failures: map[string]int64{},
		EndToEnd: metricSet{}, PerLayer: metricSet{}, Diagnostic: metricSet{},
	}
}

func (r *result) fail(kind string, n int64) {
	if n > 0 {
		r.Failed += n
		r.Failures[kind] += n
	}
}

func (r *result) note(format string, args ...any) {
	r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
}

// environment records where the numbers were taken.
type environment struct {
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	OS         string `json:"os"`
	Arch       string `json:"arch"`
	Kernel     string `json:"kernel,omitempty"`
	Network    string `json:"network"`
}

func currentEnvironment() environment {
	kernel, _ := os.ReadFile("/proc/sys/kernel/osrelease")
	return environment{
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		OS:         runtime.GOOS,
		Arch:       runtime.GOARCH,
		Kernel:     strings.TrimSpace(string(kernel)),
		Network:    "host loopback interface (127.0.0.0/8), not a link",
	}
}

// report is the -json result file: one environment, any number of runs.
type report struct {
	Environment environment `json:"environment"`
	Results     []*result   `json:"results"`
}

func readReport(path string) (*report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rep report
	if err := json.Unmarshal(data, &rep); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &rep, nil
}

func (rep *report) write(path string) error {
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// print writes the run for a person: every metric by name with its unit,
// the extremes over segments, and the failed share.
func (r *result) print() {
	fmt.Printf("== %s  seed=%d  seconds=%d  traced=%v\n", r.Workload, r.Seed, r.Seconds, r.Traced)
	for _, group := range []struct {
		title string
		set   metricSet
	}{{"end-to-end", r.EndToEnd}, {"diagnostic", r.Diagnostic}, {"per-layer", r.PerLayer}} {
		if len(group.set) == 0 {
			continue
		}
		fmt.Printf("  %s\n", group.title)
		names := make([]string, 0, len(group.set))
		for name := range group.set {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			m := group.set[name]
			line := fmt.Sprintf("    %-34s %14.6g %-6s", name, m.Value, m.Unit)
			if m.Segments > 1 {
				line += fmt.Sprintf(" min %.6g max %.6g over %d", m.Min, m.Max, m.Segments)
			}
			if m.Samples > 0 {
				line += fmt.Sprintf(" (n=%d)", m.Samples)
			}
			fmt.Println(line)
		}
	}
	share := 0.0
	if r.Attempted > 0 {
		share = float64(r.Failed) / float64(r.Attempted)
	}
	fmt.Printf("  operations: attempted %d, failed %d (%.6f) %v\n", r.Attempted, r.Failed, share, r.Failures)
	for _, n := range r.Notes {
		fmt.Printf("  note: %s\n", n)
	}
}

// driverLine is the last line of a single-workload run: the contract's
// four keys, with the end-to-end metrics of an untraced run or the
// per-layer metrics of a traced one.
func (r *result) driverLine() string {
	set := r.EndToEnd
	if r.Traced {
		set = r.PerLayer
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int64            `json:"attempted"`
		Failed    int64            `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, map[string]value{}}
	for name, m := range set {
		out.Metrics[name] = value{m.Value, m.Unit}
	}
	line, _ := json.Marshal(out)
	return string(line)
}
