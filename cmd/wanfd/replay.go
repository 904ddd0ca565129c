package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"time"

	"wanfd/internal/experiment"
	"wanfd/internal/nekostat"
	"wanfd/internal/trace"
)

// replayCmd replays an exported QoS-history window (fdmonitor's GET
// /export, or Store.Export + trace.WriteWindow) through the paper's 30
// predictor×margin grid in simulated time: every recorded heartbeat is
// re-delivered at its recorded receive instant to a fresh detector per
// combination, and the accuracy metrics are printed next to what the live
// monitor recorded. -verify fails unless the recording's own combination
// replays bit-identically; -slack 1ms tolerates a real clock's timer
// latency on the suspicion instants.
func replayCmd(fs *flag.FlagSet) func(io.Writer) error {
	var (
		peer    = fs.String("peer", "", "peer to replay when the window holds several")
		combos  = fs.String("combo", "", "comma-separated combinations to replay (e.g. \"LAST+JAC_med,ARIMA+CI_low\"); default: the full 30-combination grid")
		eta     = fs.Duration("eta", 0, "override the window's recorded heartbeat period η")
		minTO   = fs.Duration("min-timeout", 0, "override the recorded timeout floor (negative disables the floor)")
		tick    = fs.Duration("tick", 0, "run detector timers on a timing wheel of this granularity (0: exact scheduling; a live monitor's wheel ticks at 100µs)")
		verify  = fs.Bool("verify", false, "verify fidelity: exit non-zero unless the recording's own combination reproduces the recorded QoS bit-identically")
		slack   = fs.Duration("slack", 0, "with -verify, tolerate this much divergence on E[T_M]/E[T_MR] (counts stay exact); use ~1ms for windows recorded on a real clock, whose timer firings carry OS latency the idealized replay does not")
		byMeans = fs.Bool("sort", false, "sort the grid by mistake count instead of grid order")
	)
	return func(out io.Writer) error {
		if fs.NArg() != 1 {
			return fmt.Errorf("usage: wanfd replay [flags] <window-file> (see -h)")
		}
		f, err := os.Open(fs.Arg(0))
		if err != nil {
			return err
		}
		w, err := trace.ReadWindow(f)
		f.Close()
		if err != nil {
			return err
		}

		cfg := experiment.ReplayConfig{
			Peer:          *peer,
			Eta:           *eta,
			MinTimeout:    *minTO,
			SchedulerTick: *tick,
		}
		if *combos != "" {
			if cfg.Combos, err = parseCombos(*combos); err != nil {
				return err
			}
		}
		res, err := experiment.ReplayWindow(w, cfg)
		if err != nil {
			return err
		}

		fmt.Fprintf(out, "window   [%v, %v)  peer %s  %d heartbeats\n", w.From, w.To, res.Peer, res.Samples)
		end := w.To - w.From
		if res.Detector != "" {
			fmt.Fprintf(out, "recorded %s  η=%v  floor=%v\n", res.Detector, w.Eta, w.MinTimeout)
			fmt.Fprintf(out, "  %s\n", qosLine(res.Recorded, end))
		}
		order := append([]string(nil), res.Order...)
		if *byMeans {
			sort.SliceStable(order, func(i, j int) bool {
				return res.Replayed[order[i]].Mistakes < res.Replayed[order[j]].Mistakes
			})
		}
		fmt.Fprintln(out, "replayed grid:")
		for _, name := range order {
			marker := " "
			if name == res.Detector {
				marker = "*"
			}
			fmt.Fprintf(out, "%s %-16s %s\n", marker, name, qosLine(res.Replayed[name], end))
		}

		if !*verify {
			return nil
		}
		if res.Detector == "" {
			return fmt.Errorf("-verify needs a window that stamps its recording detector")
		}
		got, ok := res.Replayed[res.Detector]
		if !ok {
			return fmt.Errorf("-verify: recorded combination %s not in the replayed set (-combo filter?)", res.Detector)
		}
		if err := checkFidelity(res.Recorded, got, *slack); err != nil {
			return fmt.Errorf("fidelity check FAILED for %s:\n  %w\n  recorded %+v\n  replayed %+v", res.Detector, err, res.Recorded, got)
		}
		if *slack > 0 {
			fmt.Fprintf(out, "fidelity check passed: %s replays within %v of the recording\n", res.Detector, *slack)
		} else {
			fmt.Fprintf(out, "fidelity check passed: %s replays bit-identically\n", res.Detector)
		}
		return nil
	}
}

// checkFidelity compares the replayed accounting against the recording.
// With zero slack the mistake and recurrence counts, the open suspicion and
// the T_M and T_MR sums must match exactly — the guarantee for windows
// recorded on a deterministic (simulated) clock; an open suspicion's start
// is no part of the accounting until it closes. With positive slack the
// counts must still match exactly, but the mean mistake durations may
// diverge by up to slack: a real clock stamps a suspicion when the OS
// actually ran the timer and a trust when the heartbeat reached the
// detector, while replay fires the suspicion at the ideal freshness
// deadline and trusts at the recorded receive instant, so real recordings
// carry sub-millisecond timer and delivery latency on T_M/T_MR that the
// idealized replay cannot reproduce. P_A derives from T_M/T_MR and is not
// re-checked under slack.
func checkFidelity(rec, got nekostat.Accountant, slack time.Duration) error {
	counts := got.Suspected() == rec.Suspected() && got.Mistakes == rec.Mistakes && got.Recurrences == rec.Recurrences
	if slack <= 0 {
		if !counts || got.TMSum != rec.TMSum || got.TMRSum != rec.TMRSum {
			return fmt.Errorf("accountings differ (re-run with -slack for a real-clock recording)")
		}
		return nil
	}
	if !counts {
		return fmt.Errorf("transition counts differ")
	}
	tol := slack.Seconds()
	gotTM, gotTMR := got.Means()
	recTM, recTMR := rec.Means()
	if d := gotTM - recTM; d < -tol || d > tol {
		return fmt.Errorf("E[T_M] diverges by %v (> slack %v)", time.Duration(d*float64(time.Second)), slack)
	}
	if d := gotTMR - recTMR; d < -tol || d > tol {
		return fmt.Errorf("E[T_MR] diverges by %v (> slack %v)", time.Duration(d*float64(time.Second)), slack)
	}
	return nil
}

// qosLine renders one accounting compactly, P_A over [0, end].
func qosLine(q nekostat.Accountant, end time.Duration) string {
	tm, tmr := q.Means()
	return fmt.Sprintf("mistakes %3d  E[T_M] %8s  E[T_MR] %9s  P_A %.6f",
		q.Mistakes,
		time.Duration(tm*float64(time.Second)).Round(time.Microsecond),
		time.Duration(tmr*float64(time.Second)).Round(time.Microsecond),
		q.PA(end))
}
