// Command bench is the repository's one measurement spine: it drives the
// public wanfd API through a real kernel UDP socket on loopback, reports
// the end-to-end metrics every later performance claim must use, and in a
// traced run attributes the cost to the internal packages layer by layer.
// See README.md in this directory for the metrics, the workloads and the
// noise model.
//
//	go run ./bench                      all workloads, metrics by name
//	go run ./bench -workload fleet_burst -seed 2 -json out.json
//	go run ./bench -traced -spans spans.jsonl
//	go run ./bench -compare a.json b.json
package main

import (
	"flag"
	"fmt"
	"os"
)

func main() {
	spinIfChild()
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	var (
		name    = fs.String("workload", "", "run one workload (default: all five)")
		seed    = fs.Int64("seed", 1, "shuffles peer phases, probe selection and the paper_sim seeds")
		seconds = fs.Int("seconds", 28, "length of the timed window")
		trace   = fs.Int("trace", 0, "1 runs the traced variant and reports the per-layer metrics")
		traced  = fs.Bool("traced", false, "same as -trace 1")
		spans   = fs.String("spans", "", "traced run: write the spans to this file as JSON lines")
		runs    = fs.Int("runs", 1, "repeat each workload with seeds seed, seed+1, ...")
		out     = fs.String("json", "", "write the results to this file")
		compare = fs.Bool("compare", false, "compare two result files: -compare a.json b.json")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "bench: -compare needs two result files")
			return 2
		}
		return compareFiles(fs.Arg(0), fs.Arg(1))
	}
	if *seconds < 1 || *runs < 1 {
		fmt.Fprintln(os.Stderr, "bench: -seconds and -runs must be positive")
		return 2
	}
	selected := workloads
	if *name != "" {
		w, err := findWorkload(*name)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 2
		}
		selected = []workload{w}
	}
	cfg := runConfig{seconds: *seconds}
	if *traced || *trace == 1 {
		cfg.spans = newSpanLog()
	}
	rep := &report{Environment: currentEnvironment()}
	env := rep.Environment
	fmt.Printf("nproc=%d GOMAXPROCS=%d %s %s/%s kernel %s; traffic crosses the %s\n",
		env.NumCPU, env.GOMAXPROCS, env.GoVersion, env.OS, env.Arch, env.Kernel, env.Network)
	for _, w := range selected {
		if w.fleet != nil {
			// The socket workloads are timed with the monitor's CPUs kept out
			// of the idle state; paper_sim never waits, so it does not care.
			spin, err := startIdleSpinner(splitCPUs())
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				return 1
			}
			defer spin.stop()
			break
		}
	}
	var last *result
	for _, w := range selected {
		for i := 0; i < *runs; i++ {
			cfg.seed = *seed + int64(i)
			res, err := runWorkload(w, cfg)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				return 1
			}
			res.print()
			rep.Results = append(rep.Results, res)
			last = res
		}
	}
	if *out != "" {
		if err := rep.write(*out); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
	}
	if cfg.spans != nil && *spans != "" {
		if err := cfg.spans.write(*spans); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
	}
	// A run that completed exits 0 even when operations failed: whether its
	// outputs were correct is a field of the result, not an exit status.
	if len(rep.Results) == 1 {
		fmt.Println(last.driverLine())
	}
	return 0
}

func runWorkload(w workload, cfg runConfig) (*result, error) {
	if w.fleet == nil {
		return runPaperSim(w, cfg)
	}
	return runFleet(w, cfg)
}
