package main

import (
	"flag"
	"fmt"
	"io"
	"time"

	"wanfd/internal/qosplan"
)

// planCmd sizes a constant-timeout failure detector from QoS requirements,
// the Chen/Toueg/Aguilera configuration approach the paper contrasts with
// its adaptive detectors: given the network's probabilistic
// characterization and the QoS needed, it prints the heartbeat period η,
// the timeout δ and the QoS the analysis predicts.
func planCmd(fs *flag.FlagSet) func(io.Writer) error {
	var (
		bound  = fs.Duration("bound", 2*time.Second, "hard detection-time bound T_D^U")
		tmr    = fs.Duration("tmr", 0, "lower bound on mistake recurrence T_MR (0 = none)")
		tm     = fs.Duration("tm", 0, "upper bound on mistake duration T_M (0 = none)")
		loss   = fs.Float64("loss", 0.004, "message loss probability")
		mean   = fs.Duration("mean", 207*time.Millisecond, "mean one-way delay")
		stddev = fs.Duration("stddev", 9*time.Millisecond, "one-way delay standard deviation")
	)
	return func(w io.Writer) error {
		network := qosplan.Network{
			LossProb:    *loss,
			MeanDelay:   *mean,
			StdDevDelay: *stddev,
		}
		plan, err := qosplan.Compute(network, qosplan.Requirements{
			MaxDetectionTime:     *bound,
			MinMistakeRecurrence: *tmr,
			MaxMistakeDuration:   *tm,
		})
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "network: loss %.3f%%, delay %v ± %v\n", *loss*100, *mean, *stddev)
		fmt.Fprintf(w, "plan:    eta %v, timeout %v (constant margin %v over the mean delay)\n",
			plan.Eta.Round(time.Millisecond), plan.Timeout.Round(time.Millisecond),
			plan.Margin.Round(time.Millisecond))
		fmt.Fprintln(w, "predicted QoS:")
		fmt.Fprintf(w, "  detection bound T_D^U   %v\n", plan.PredictedDetectionBound.Round(time.Millisecond))
		fmt.Fprintf(w, "  mean detection  T_D     %v\n", plan.PredictedMeanDetection.Round(time.Millisecond))
		fmt.Fprintf(w, "  mistake recurrence T_MR %v\n", plan.PredictedMistakeRecurrence.Round(time.Second))
		fmt.Fprintf(w, "  mistake duration   T_M  %v\n", plan.PredictedMistakeDuration.Round(time.Millisecond))
		fmt.Fprintf(w, "  query accuracy     P_A  %.6f\n", plan.PredictedQueryAccuracy)
		fmt.Fprintln(w, "\nrun it: fdmonitor with an NFD-E detector, or wanfd.NewDetector with")
		fmt.Fprintln(w, "the MEAN predictor and a constant margin of the printed size.")
		return nil
	}
}
