package wanfd

import (
	"fmt"
	"time"

	"wanfd/internal/layers"
	"wanfd/internal/neko"
	"wanfd/internal/telemetry"
	"wanfd/internal/transport"
)

// Monitor is a running single-peer UDP failure detector: a thin view over
// a MultiMonitor whose one member is the remote heartbeater.
type Monitor struct {
	mm *MultiMonitor
	// e is the one peer's entry: the cluster is private to this view, so
	// the peer is never removed and the record stays this peer's.
	e *peerEntry
}

// udpHeartbeaterID is the local process id of a RunHeartbeater endpoint;
// the monitors it sends to are numbered from udpHeartbeaterID+1. Monitors
// identify heartbeaters by source address, not by this id.
const udpHeartbeaterID neko.ProcessID = 1

// NewMonitor opens the socket, optionally syncs clocks with the remote
// heartbeater, and starts detecting — the failure-detecting side of the
// paper's architecture on a real network. It is NewMultiMonitor seeded with
// one peer, named by its address, and takes the same options (except
// WithPeer):
//
//	mon, err := wanfd.NewMonitor(":7007", "host:7008",
//		wanfd.WithEta(time.Second),
//		wanfd.WithPredictor("ARIMA"), wanfd.WithMargin("CI_low"))
//
// Close must be called to release the socket.
func NewMonitor(listen, remote string, opts ...Option) (*Monitor, error) {
	o := resolveOptions(opts)
	if len(o.peers) > 0 {
		return nil, fmt.Errorf("wanfd: NewMonitor does not support WithPeer (use NewMultiMonitor)")
	}
	if remote == "" {
		return nil, fmt.Errorf("wanfd: monitor needs the heartbeater address")
	}
	// The one monitored peer is labeled by its remote address — in
	// callbacks, telemetry series and the durable store alike.
	o.peers = []peerSpec{{name: remote, addr: remote}}
	mm, err := newMultiMonitor(listen, o)
	if err != nil {
		return nil, err
	}
	mon := &Monitor{mm: mm}
	mm.view(remote, func(e *peerEntry) { mon.e = e })
	return mon, nil
}

// Suspected reports the detector's current output.
func (m *Monitor) Suspected() bool { return m.e.det.Suspected() }

// Timeout returns the current adaptive timeout of a freshness-point
// detector; for a φ-accrual monitor it returns 0 (use Phi instead).
func (m *Monitor) Timeout() time.Duration { return m.mm.status(m.e).Timeout }

// Phi returns the φ-accrual suspicion level, or 0 for a freshness-point
// monitor.
func (m *Monitor) Phi() float64 { return m.mm.status(m.e).Phi }

// ClockOffset returns the estimated peer clock offset (0 if SyncClock was
// not requested).
func (m *Monitor) ClockOffset() time.Duration { return m.mm.status(m.e).ClockOffset }

// DetectorStats returns a snapshot of the detector's lifetime counters.
func (m *Monitor) DetectorStats() DetectorStats { return m.e.det.DetectorStats() }

// LocalAddr returns the monitor's bound UDP address string.
func (m *Monitor) LocalAddr() string { return m.mm.LocalAddr() }

// Telemetry returns the registry the monitor was built with (nil without
// WithTelemetry).
func (m *Monitor) Telemetry() *telemetry.Registry { return m.mm.Telemetry() }

// Close stops the detector and releases the socket.
func (m *Monitor) Close() error { return m.mm.Close() }

// HeartbeaterConfig assembles a UDP heartbeater: the monitored side.
type HeartbeaterConfig struct {
	// Listen is the local UDP address (also answers clock-sync requests).
	Listen string
	// Remote is the monitor's UDP address.
	Remote string
	// Remotes are additional monitor addresses. Every monitor gets its own
	// η-grid, which that monitor alone can retune (WithTargetDetection);
	// the grids start together.
	Remotes []string
	// Eta is the sending period.
	Eta time.Duration
}

// Heartbeater is a running UDP heartbeat sender serving one or more
// monitors.
type Heartbeater struct {
	net *transport.UDPNetwork
	grp *layers.HeartbeaterGroup
}

// RunHeartbeater opens the socket and starts sending heartbeats every Eta
// to every configured monitor. Close must be called to stop sending and
// release the socket.
func RunHeartbeater(cfg HeartbeaterConfig) (*Heartbeater, error) {
	remotes := make([]string, 0, 1+len(cfg.Remotes))
	if cfg.Remote != "" {
		remotes = append(remotes, cfg.Remote)
	}
	remotes = append(remotes, cfg.Remotes...)
	if len(remotes) == 0 {
		return nil, fmt.Errorf("wanfd: heartbeater needs the monitor address")
	}
	// Checked before the socket opens: the start sequence below divides by it.
	if cfg.Eta <= 0 {
		return nil, fmt.Errorf("wanfd: heartbeat period must be positive, got %v", cfg.Eta)
	}
	const firstMonitorID = udpHeartbeaterID + 1
	peers := make(map[neko.ProcessID]string, len(remotes))
	for i, addr := range remotes {
		peers[firstMonitorID+neko.ProcessID(i)] = addr
	}
	net, err := transport.NewUDPNetwork(transport.UDPConfig{
		LocalID: udpHeartbeaterID,
		Listen:  cfg.Listen,
		Peers:   peers,
	})
	if err != nil {
		return nil, err
	}
	ok := false
	defer func() {
		if !ok {
			_ = net.Close()
		}
	}()
	grp, err := layers.NewHeartbeaterGroup(cfg.Eta)
	if err != nil {
		return nil, err
	}
	// Number cycles on the shared wall-clock grid (σ_i = i·η) so a
	// restarted heartbeater resumes with fresh sequence numbers.
	startSeq := net.WallTime().UnixNano() / int64(cfg.Eta)
	for i := range remotes {
		if err := grp.Add(firstMonitorID+neko.ProcessID(i), startSeq); err != nil {
			return nil, err
		}
	}
	proc, err := neko.NewProcess(udpHeartbeaterID, net.Clock(), net, grp)
	if err != nil {
		return nil, err
	}
	if err := proc.Start(); err != nil {
		return nil, err
	}
	ok = true
	return &Heartbeater{net: net, grp: grp}, nil
}

// Sent returns the number of heartbeats emitted, summed over all monitors.
func (h *Heartbeater) Sent() uint64 { return h.grp.Sent() }

// LocalAddr returns the bound UDP address string.
func (h *Heartbeater) LocalAddr() string { return h.net.LocalAddr().String() }

// Close stops sending and releases the socket.
func (h *Heartbeater) Close() error {
	h.grp.Stop()
	return h.net.Close()
}
