// Package wanfd is a library of adaptive push-style crash failure
// detectors for wide-area networks, reproducing "Experimental Evaluation
// of the QoS of Failure Detectors on Wide Area Network" (Falai &
// Bondavalli, DSN 2005).
//
// A detector watches the heartbeat stream of one monitored process. Its
// per-cycle timeout is the sum of a delay predictor (LAST, MEAN,
// WINMEAN(10), LPF(1/8) or ARIMA(2,1,1)) and a safety margin (the
// confidence-interval margin SM_CI with γ ∈ {1, 2, 3.31}, or the
// Jacobson-style margin SM_JAC with φ ∈ {1, 2, 4}), giving the paper's 30
// combinations; the NFD-E (Chen et al.) and Bertier baselines and a
// φ-accrual suspicion-level exporter are included.
//
// Three ways to use the library:
//
//   - Feed heartbeats yourself: NewDetector plus Detector.Heartbeat, for
//     embedding the timeout logic into an existing transport.
//   - Run over UDP: NewMultiMonitor on the observer (NewMonitor is the
//     same monitor seeded with a single peer) and RunHeartbeater on the
//     monitored host — the paper's architecture on a real network.
//   - Reproduce the paper: ReproduceAccuracy (Table 3), ReproduceQoS
//     (Figures 4–8) and CharacterizeChannel (Table 4) drive the bundled
//     discrete-event WAN simulation; the cmd/ binaries wrap them.
//
// QoS metrics follow Chen, Toueg and Aguilera: detection time T_D, maximum
// detection time T_D^U, mistake duration T_M, mistake recurrence time
// T_MR, and query accuracy probability P_A.
package wanfd
