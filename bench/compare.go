package main

import (
	"fmt"
	"math"
	"os"
	"sort"
)

// sample is one side's evidence for one (workload, metric) pair: the value
// of every run in the file and, for a single run, its segment values.
type sample struct {
	values   []float64
	segments []float64
}

func (s sample) median() float64 { return median(s.values) }

// spread is the run-to-run spread as a share of the median: the distance
// between the quartiles with four runs or more, the range otherwise. A
// single run has only its segments to go by, which says how steady the run
// was, not how far the next one will land from it.
func (s sample) spread() float64 {
	med := s.median()
	vals := s.values
	if len(vals) == 1 {
		vals = s.segments
	}
	switch n := len(vals); {
	case med == 0 || len(s.values) == 0:
		return 0
	case n >= 4:
		q1, q3 := quartiles(vals)
		return (q3 - q1) / math.Abs(med)
	case n > 1:
		lo, hi := vals[0], vals[0]
		for _, v := range vals {
			lo, hi = math.Min(lo, v), math.Max(hi, v)
		}
		return (hi - lo) / math.Abs(med)
	}
	return 0
}

// collect groups a report's end-to-end values by workload and metric, and
// sums attempted and failed operations per workload.
func collect(rep *report) (vals map[string]map[string]*sample, ops map[string][2]int64) {
	vals = map[string]map[string]*sample{}
	ops = map[string][2]int64{}
	for _, r := range rep.Results {
		if r.Traced {
			continue
		}
		if vals[r.Workload] == nil {
			vals[r.Workload] = map[string]*sample{}
		}
		for name, m := range r.EndToEnd {
			s := vals[r.Workload][name]
			if s == nil {
				s = &sample{segments: m.PerSegment}
				vals[r.Workload][name] = s
			}
			s.values = append(s.values, m.Value)
		}
		o := ops[r.Workload]
		ops[r.Workload] = [2]int64{o[0] + r.Attempted, o[1] + r.Failed}
	}
	return vals, ops
}

// judge compares side b against baseline a for one metric. A median worse
// than the bound is "worse"; when either side's spread is wider than the
// bound the pair is "unresolved", unless every run of b reads better than
// every run of a.
func judge(def metricDef, a, b sample) (delta float64, verdict string) {
	ma, mb := a.median(), b.median()
	delta = (mb - ma) / math.Abs(ma)
	regress := delta
	if def.higher {
		regress = -delta
	}
	if math.Max(a.spread(), b.spread()) > def.bound {
		better := true
		for _, x := range a.values {
			for _, y := range b.values {
				if def.higher && y <= x || !def.higher && y >= x {
					better = false
				}
			}
		}
		if better {
			return delta, "ok"
		}
		return delta, "unresolved"
	}
	if regress > def.bound {
		return delta, "worse"
	}
	return delta, "ok"
}

// compareFiles prints one row per (workload, metric) present in both result
// files and returns 1 when any row is worse, or b fails more operations.
func compareFiles(pathA, pathB string) int {
	repA, err := readReport(pathA)
	if err == nil {
		var repB *report
		if repB, err = readReport(pathB); err == nil {
			return compareReports(repA, repB)
		}
	}
	fmt.Fprintln(os.Stderr, "bench:", err)
	return 2
}

func compareReports(repA, repB *report) int {
	valsA, opsA := collect(repA)
	valsB, opsB := collect(repB)
	var names []string
	for w := range valsA {
		if valsB[w] != nil {
			names = append(names, w)
		}
	}
	sort.Slice(names, func(i, j int) bool { return workloadOrder(names[i]) < workloadOrder(names[j]) })
	code := 0
	fmt.Printf("%-13s %-24s %14s %14s %9s %7s %8s  %s\n",
		"workload", "metric", "a", "b", "change", "bound", "spread", "verdict")
	for _, w := range names {
		for _, def := range endToEnd {
			a, b := valsA[w][def.name], valsB[w][def.name]
			if a == nil || b == nil {
				continue
			}
			delta, verdict := judge(def, *a, *b)
			if verdict == "worse" {
				code = 1
			}
			fmt.Printf("%-13s %-24s %14.6g %14.6g %+8.2f%% %6.1f%% %7.1f%%  %s\n",
				w, def.name, a.median(), b.median(), 100*delta, 100*def.bound,
				100*math.Max(a.spread(), b.spread()), verdict)
		}
		fa, fb := opsA[w], opsB[w]
		verdict := "ok"
		if float64(fb[1])*float64(fa[0]) > float64(fa[1])*float64(fb[0]) {
			verdict, code = "worse", 1
		}
		fmt.Printf("%-13s %-24s %9d/%-9d %9d/%-9d %31s\n", w, "failed/attempted",
			fa[1], fa[0], fb[1], fb[0], verdict)
	}
	return code
}

func workloadOrder(name string) int {
	for i, w := range workloads {
		if w.name == name {
			return i
		}
	}
	return len(workloads)
}
