package wanfd

import (
	"fmt"
	"time"

	"wanfd/internal/core"
	"wanfd/internal/store"
	"wanfd/internal/telemetry"
)

// Option configures the functional-options entry points NewMonitor and
// NewMultiMonitor. Both share one option vocabulary and one defaulting
// pass, so a predictor/margin/floor choice reads identically whether one
// peer or a whole fleet is monitored:
//
//	mon, err := wanfd.NewMultiMonitor(":7007",
//		wanfd.WithEta(time.Second),
//		wanfd.WithPredictor("LAST"),
//		wanfd.WithMargin("JAC_med"),
//		wanfd.WithOnChange(onChange))
//
// NewMonitor is a one-peer cluster, so the only option an entry point
// rejects is WithPeer on NewMonitor.
type Option func(*options)

// options is the normalized configuration shared by every monitor entry
// point — the single home of the defaulting rules.
type options struct {
	eta              time.Duration
	predictor        string
	margin           string
	minTimeout       time.Duration
	accrualThreshold float64
	targetDetection  time.Duration
	// syncTimeout is the per-round timeout of the clock-sync exchange
	// AddPeer runs before routing a peer; zero (WithSyncClock absent) means
	// no exchange.
	syncTimeout time.Duration
	onChange    func(peer string, suspected bool, elapsed time.Duration)
	onSuspect   func(elapsed time.Duration)
	onTrust     func(elapsed time.Duration)
	peers       []peerSpec
	telemetry   *telemetry.Registry
	qstore      *store.Store
	// readers is the SO_REUSEPORT reader-socket count (see PipelineConfig);
	// zero selects a single reader.
	readers int
	// expectedPeers pre-sizes the cluster monitor's peer tables (see
	// PipelineConfig.ExpectedPeers).
	expectedPeers int
}

// peerSpec is one initial cluster member.
type peerSpec struct{ name, addr string }

// DefaultMinTimeout is the adaptive-timeout floor applied when none is
// requested; it rides out the bootstrap phase on real hosts (see
// core.DetectorConfig.MinTimeout). WithMinTimeout overrides it; replay
// tooling (wanfd replay) needs the exported constant to reproduce a live
// monitor's default configuration exactly.
const DefaultMinTimeout = 10 * time.Millisecond

// normalize applies the shared defaulting conventions. This is the one
// place the sentinel rules live:
//
//   - Predictor defaults to "LAST" and Margin to "JAC_med" — the paper's
//     recommended combination.
//   - MinTimeout is a three-way sentinel: zero means "use the default
//     floor" (10 ms), negative means "no floor at all" (the paper's
//     detectors, normalized to 0), positive is the floor itself. A
//     φ-accrual monitor has no floor: its timeout bounds an inter-arrival
//     time, not a delay.
func (o *options) normalize() {
	if o.predictor == "" {
		o.predictor = "LAST"
	}
	if o.margin == "" {
		o.margin = "JAC_med"
	}
	switch {
	case o.minTimeout < 0, o.accrualThreshold > 0:
		o.minTimeout = 0
	case o.minTimeout == 0:
		o.minTimeout = DefaultMinTimeout
	}
}

// resolveOptions builds the normalized configuration for a functional-
// options entry point. Eta defaults to the paper's 1 s heartbeat period.
func resolveOptions(opts []Option) options {
	o := options{eta: time.Second}
	for _, opt := range opts {
		if opt != nil {
			opt(&o)
		}
	}
	o.normalize()
	return o
}

// WithEta sets the heartbeat period η the monitored processes use
// (default 1 s, the paper's setting).
func WithEta(eta time.Duration) Option {
	return func(o *options) { o.eta = eta }
}

// WithPredictor selects the delay predictor (ARIMA, LAST, LPF, MEAN,
// WINMEAN; default LAST).
func WithPredictor(name string) Option {
	return func(o *options) { o.predictor = name }
}

// WithMargin selects the safety margin (CI_low/med/high, JAC_low/med/high;
// default JAC_med).
func WithMargin(name string) Option {
	return func(o *options) { o.margin = name }
}

// WithMinTimeout floors the adaptive timeout. The sentinel convention is
// documented on options.normalize: 0 selects the 10 ms default floor and a
// negative value disables the floor entirely.
func WithMinTimeout(d time.Duration) Option {
	return func(o *options) { o.minTimeout = d }
}

// WithOnChange installs the per-peer transition callback invoked on any
// suspicion change; it must not block, and it must not call back into the
// monitor. The callback runs with its peer's detector locked: Status,
// Snapshot, PeerStatusOf and Suspected take the peer table's read lock and
// then that detector's, AddPeer and RemovePeer wait for its write lock —
// so a callback that queries the monitor while another goroutine adds a
// peer is a three-party deadlock, and one that asks about its own peer
// deadlocks by itself. Hand the event to another goroutine (a buffered
// channel, a queue) and do the work there. Trust transitions run on the
// socket reader goroutine that received the heartbeat, so a callback that
// blocks there stalls reception for every peer on that socket — the kernel
// buffer then overflows and the loss is counted in IngestStats.KernelDrops
// — and, since no deadline expires past the stamp of a batch still being
// delivered, it holds back every later suspicion too, for at most one
// second: the heartbeats behind it in its batch were received in time.
// Suspicions run on the monitor's one expiry driver, the goroutine that
// fires every peer's deadline: a callback that blocks there delays every
// later suspicion of the whole monitor. It cannot delay reception or trust
// transitions, which stay on the reader — a heartbeat that arrives
// meanwhile still re-arms its peer's deadline, so a stalled suspicion
// callback postpones suspicions but never turns a live peer into a
// suspect. On a single-peer Monitor the peer argument is the remote
// address. When WithOnSuspect/WithOnTrust are set too, they fire first.
func WithOnChange(fn func(peer string, suspected bool, elapsed time.Duration)) Option {
	return func(o *options) { o.onChange = fn }
}

// WithOnSuspect installs a suspicion-start callback that does not name
// the peer (the natural form for a single-peer Monitor; on a cluster it
// fires for every peer); it must not block or call any method of the
// monitor: it runs on the monitor's one expiry driver and delays every other
// deadline of the monitor (never reception or trust transitions), with its
// peer's record locked (see WithOnChange).
func WithOnSuspect(fn func(elapsed time.Duration)) Option {
	return func(o *options) { o.onSuspect = fn }
}

// WithOnTrust installs a suspicion-end callback that does not name the
// peer (see WithOnSuspect); it must not block or call any method of the
// monitor: it runs on the socket reader goroutine, so blocking stalls
// reception for every peer, with its peer's record locked (see
// WithOnChange).
func WithOnTrust(fn func(elapsed time.Duration)) Option {
	return func(o *options) { o.onTrust = fn }
}

// WithAccrualThreshold replaces every peer's predictor and margin with
// φ-accrual's at the given threshold (8 is the common production default):
// a peer is suspected once φ crosses it, mean + z·σ of the windowed
// inter-arrival times after its freshest heartbeat. WithPredictor,
// WithMargin and WithMinTimeout then do not apply. It cannot be combined
// with WithTargetDetection.
func WithAccrualThreshold(phi float64) Option {
	return func(o *options) { o.accrualThreshold = phi }
}

// WithTargetDetection activates the adaptable sending period (the Bertier
// extension) aiming at the given worst-case detection time: every peer
// gets its own interval controller, which commands that peer's heartbeater.
func WithTargetDetection(d time.Duration) Option {
	return func(o *options) { o.targetDetection = d }
}

// WithSyncClock estimates each peer's clock offset with an NTP-style
// exchange before its first heartbeat is delivered; adding a peer that does
// not answer fails.
func WithSyncClock() Option {
	return func(o *options) { o.syncTimeout = 2 * time.Second }
}

// WithPeer seeds a cluster monitor with one initial member; repeat for
// several. Only NewMultiMonitor supports it — more members can join later
// through AddPeer.
func WithPeer(name, addr string) Option {
	return func(o *options) { o.peers = append(o.peers, peerSpec{name: name, addr: addr}) }
}

// WithTelemetry attaches a live telemetry registry to the monitor: packet,
// dispatch and detector counters, per-peer delay and prediction-error
// histograms, running QoS gauges (P_A, E[T_M], E[T_MR]), and a bounded
// ring of suspicion-transition events. Both NewMonitor and NewMultiMonitor
// support it. Each peer's detector is given its own bundle
// (Registry.DetectorMetrics) when the peer is published, and feeds it every
// heartbeat and every transition itself; the peer's accuracy window opens
// then. Telemetry is disabled (and the hot path pays only dead nil-check
// branches) when this option is absent or reg is nil.
//
// A registry serves one monitor for its lifetime: a second monitor on it
// fails and leaves it as it was, and a construction that fails after
// claiming it leaves it claimed (telemetry.Registry.Claim).
//
// The registry is exposed over HTTP by cmd/fdmonitor's -http mode
// (GET /metrics in Prometheus text format, GET /events as JSON Lines); see
// internal/telemetry.Mount for embedding it elsewhere.
func WithTelemetry(reg *telemetry.Registry) Option {
	return func(o *options) { o.telemetry = reg }
}

// WithStore attaches a durable QoS store: every heartbeat delay sample and
// every suspicion transition is appended (off the hot path, through a
// bounded lock-free ring) to the store's on-disk segment log, where the
// windowed query API (Store.Query/Store.Export) can reconstruct the QoS
// metrics of any past time window. Each peer's detector is given its own
// recorder (Store.Recorder) when the peer is published and feeds it both
// itself. Both NewMonitor and NewMultiMonitor support it.
//
// The monitor does NOT close the store — one store may outlive (or be
// shared by) several monitors, so lifecycle stays with the caller: close
// the monitor first, then st.Close(). A store shared by several monitors
// exports its series in each one's telemetry registry. A nil st disables
// durable history (the hot path pays only a nil-check branch).
func WithStore(st *store.Store) Option {
	return func(o *options) { o.qstore = st }
}

// PipelineConfig tunes the batched receive pipeline and the peer tables'
// initial size. The zero value selects every default; fields are
// orthogonal, so setting one knob does not disturb the others.
type PipelineConfig struct {
	// Readers is the SO_REUSEPORT reader-socket count of the receive path;
	// 0 or 1 means a single reader. Each reader is one goroutine that
	// drains its socket and runs the detector updates itself, so this is
	// also the receive path's parallelism across cores. Honoured only
	// where SO_REUSEPORT is available (linux).
	Readers int
	// ExpectedPeers declares the cluster size a MultiMonitor is being
	// built for. It pre-sizes the peer tables so growing to the expected
	// population never rehashes under load; it changes nothing else — a
	// monitor has one peer table and one timing wheel at every size.
	ExpectedPeers int
}

// WithPipeline applies pipeline tuning. NewMonitor and NewMultiMonitor
// run the same pipeline, so every field applies to both.
func WithPipeline(cfg PipelineConfig) Option {
	return func(o *options) {
		if cfg.Readers > 0 {
			o.readers = cfg.Readers
		}
		if cfg.ExpectedPeers > 0 {
			o.expectedPeers = cfg.ExpectedPeers
		}
	}
}

// validate rejects a detector recipe no peer could be built from, so a bad
// predictor or margin name, or an impossible combination, fails at
// construction even with an empty initial peer set.
func (o *options) validate() error {
	if _, err := core.NewPredictorByName(o.predictor); err != nil {
		return err
	}
	if _, err := core.NewMarginByName(o.margin); err != nil {
		return err
	}
	if o.eta <= 0 {
		return fmt.Errorf("wanfd: eta must be positive, got %v", o.eta)
	}
	if o.targetDetection > 0 && o.accrualThreshold > 0 {
		return fmt.Errorf("wanfd: TargetDetection requires a freshness-point detector (unset AccrualThreshold)")
	}
	return nil
}

// detectorConfig is the one recipe behind every monitored peer's detector,
// less its environment (clock, listener, floor) and its per-peer taps
// (telemetry bundle, store recorder), which the caller supplies once the
// name is the peer's. name labels the peer in callbacks, telemetry and the
// store. The paper's predictor and margin are named, not built, so the
// fixed-size kinds live in the detector's own record and a default peer
// has no object of its own (core.DetectorConfig.Combo); φ-accrual's pair is
// built per peer.
func (o *options) detectorConfig(name string) (core.DetectorConfig, error) {
	cfg := core.DetectorConfig{Name: name, Eta: o.eta}
	if o.accrualThreshold <= 0 {
		cfg.Combo = core.Combo{Predictor: o.predictor, Margin: o.margin}
		return cfg, nil
	}
	var err error
	cfg.Predictor, cfg.Margin, err = core.NewAccrualCombo(o.accrualThreshold, 0, 0)
	return cfg, err
}
