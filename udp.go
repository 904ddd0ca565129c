package wanfd

import (
	"fmt"
	"time"

	"wanfd/internal/core"
	"wanfd/internal/layers"
	"wanfd/internal/neko"
	"wanfd/internal/store"
	"wanfd/internal/telemetry"
	"wanfd/internal/transport"
)

// Monitor is a running UDP failure detector.
type Monitor struct {
	net   *transport.UDPNetwork
	mon   *layers.Monitor
	reg   *telemetry.Registry
	store *store.Store
}

// Process ids used by the UDP harness (one heartbeater, one monitor).
const (
	udpHeartbeaterID neko.ProcessID = 1
	udpMonitorID     neko.ProcessID = 2
)

// NewMonitor opens the socket, optionally syncs clocks with the remote
// heartbeater, and starts detecting — the failure-detecting side of the
// paper's architecture on a real network. It shares its option vocabulary
// with NewMultiMonitor:
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
	net, err := transport.NewUDPNetwork(transport.UDPConfig{
		LocalID:             udpMonitorID,
		Listen:              listen,
		Peers:               map[neko.ProcessID]string{udpHeartbeaterID: remote},
		Telemetry:           o.telemetry,
		Readers:             o.readers,
		EgressBatch:         o.egressBatch,
		EgressFlushInterval: o.egressFlushInterval,
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

	if o.syncClock {
		if _, err := net.SyncWith(udpHeartbeaterID, 8, 2*time.Second); err != nil {
			return nil, fmt.Errorf("wanfd: clock sync: %w", err)
		}
	}
	o.qstore.Instrument(o.telemetry)
	o.onChange = foldCallbacks(o.onSuspect, o.onTrust, o.onChange)
	// The one monitored peer is labeled by its remote address — in
	// callbacks, telemetry series and the durable store alike.
	var consumer core.HeartbeatConsumer
	if o.accrualThreshold > 0 {
		acc, err := core.NewAccrualDetector(core.AccrualDetectorConfig{
			Threshold: o.accrualThreshold,
			Clock:     net.Clock(),
			Listener: peerListener{
				name: remote, onChange: o.onChange, reg: o.telemetry, rec: o.qstore.Recorder(remote),
			},
		})
		if err != nil {
			return nil, err
		}
		consumer = acc
	} else {
		det, err := o.newDetector(remote, net.Clock())
		if err != nil {
			return nil, err
		}
		o.exportDetector(remote, det)
		consumer = det
	}
	mon, err := layers.NewConsumerMonitor(consumer)
	if err != nil {
		return nil, err
	}
	stack := []neko.Layer{mon}
	if o.targetDetection > 0 {
		det := mon.Detector()
		if det == nil {
			return nil, fmt.Errorf("wanfd: TargetDetection requires a freshness-point detector (unset AccrualThreshold)")
		}
		ctrl, err := layers.NewIntervalController(layers.IntervalControllerConfig{
			Detector:        det,
			TargetDetection: o.targetDetection,
			Peer:            udpHeartbeaterID,
		})
		if err != nil {
			return nil, err
		}
		stack = []neko.Layer{ctrl, mon}
	}
	proc, err := neko.NewProcess(udpMonitorID, net.Clock(), net, stack...)
	if err != nil {
		return nil, err
	}
	if err := proc.Start(); err != nil {
		return nil, err
	}
	ok = true
	return &Monitor{net: net, mon: mon, reg: o.telemetry, store: o.qstore}, nil
}

// Suspected reports the detector's current output.
func (m *Monitor) Suspected() bool { return m.mon.Consumer().Suspected() }

// Timeout returns the current adaptive timeout of a freshness-point
// detector; for a φ-accrual monitor it returns 0 (use Phi instead).
func (m *Monitor) Timeout() time.Duration {
	det := m.mon.Detector()
	if det == nil {
		return 0
	}
	return time.Duration(det.CurrentTimeout() * float64(time.Millisecond))
}

// Phi returns the φ-accrual suspicion level, or 0 for a freshness-point
// monitor.
func (m *Monitor) Phi() float64 {
	if acc, ok := m.mon.Consumer().(*core.AccrualDetector); ok {
		return acc.Phi()
	}
	return 0
}

// ClockOffset returns the estimated peer clock offset (0 if SyncClock was
// not requested).
func (m *Monitor) ClockOffset() time.Duration { return m.net.Offset(udpHeartbeaterID) }

// DetectorStats returns a snapshot of the detector's lifetime counters
// (zero for consumer kinds that expose none).
func (m *Monitor) DetectorStats() DetectorStats {
	if s, ok := m.mon.Consumer().(StatsProvider); ok {
		return s.DetectorStats()
	}
	return DetectorStats{}
}

// Close stops the detector and releases the socket.
func (m *Monitor) Close() error {
	m.mon.Stop()
	return m.net.Close()
}

// HeartbeaterConfig assembles a UDP heartbeater: the monitored side.
type HeartbeaterConfig struct {
	// Listen is the local UDP address (also answers clock-sync requests).
	Listen string
	// Remote is the monitor's UDP address.
	Remote string
	// Remotes are additional monitor addresses. With more than one remote
	// in total the heartbeater runs a HeartbeaterGroup: every monitor gets
	// its own η-grid, phase-staggered across the interval, and the grids
	// drain through the transport's batched egress pipeline (one sendmmsg
	// per flush) instead of one write syscall per monitor per cycle.
	Remotes []string
	// Eta is the sending period.
	Eta time.Duration
}

// Heartbeater is a running UDP heartbeat sender serving one or more
// monitors.
type Heartbeater struct {
	net *transport.UDPNetwork
	hb  *layers.Heartbeater      // single-monitor form
	grp *layers.HeartbeaterGroup // multi-monitor form
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
	peers := make(map[neko.ProcessID]string, len(remotes))
	for i, addr := range remotes {
		peers[udpMonitorID+neko.ProcessID(i)] = addr
	}
	net, err := transport.NewUDPNetwork(transport.UDPConfig{
		LocalID: udpHeartbeaterID,
		Listen:  cfg.Listen,
		Peers:   peers,
	})
	if err != nil {
		return nil, err
	}
	h := &Heartbeater{net: net}
	// Number cycles on the shared wall-clock grid (σ_i = i·η) so a
	// restarted heartbeater resumes with fresh sequence numbers.
	startSeq := net.WallTime().UnixNano() / int64(cfg.Eta)
	var top neko.Layer
	if len(remotes) == 1 {
		hb, err := layers.NewHeartbeater(udpMonitorID, cfg.Eta)
		if err != nil {
			_ = net.Close()
			return nil, err
		}
		if err := hb.SetStartSeq(startSeq); err != nil {
			_ = net.Close()
			return nil, err
		}
		h.hb, top = hb, hb
	} else {
		grp, err := layers.NewHeartbeaterGroup(cfg.Eta)
		if err != nil {
			_ = net.Close()
			return nil, err
		}
		for i := range remotes {
			if err := grp.Add(udpMonitorID+neko.ProcessID(i), startSeq); err != nil {
				_ = net.Close()
				return nil, err
			}
		}
		h.grp, top = grp, grp
	}
	proc, err := neko.NewProcess(udpHeartbeaterID, net.Clock(), net, top)
	if err != nil {
		_ = net.Close()
		return nil, err
	}
	if err := proc.Start(); err != nil {
		_ = net.Close()
		return nil, err
	}
	return h, nil
}

// Sent returns the number of heartbeats emitted (summed over all monitors
// in the multi-monitor form).
func (h *Heartbeater) Sent() uint64 {
	if h.grp != nil {
		return h.grp.Sent()
	}
	return h.hb.Sent()
}

// LocalAddr returns the bound UDP address string.
func (h *Heartbeater) LocalAddr() string { return h.net.LocalAddr().String() }

// Close stops sending and releases the socket.
func (h *Heartbeater) Close() error {
	if h.grp != nil {
		h.grp.Stop()
	} else {
		h.hb.Stop()
	}
	return h.net.Close()
}

// LocalAddr returns the monitor's bound UDP address string.
func (m *Monitor) LocalAddr() string { return m.net.LocalAddr().String() }

// Telemetry returns the registry the monitor was built with (nil without
// WithTelemetry).
func (m *Monitor) Telemetry() *telemetry.Registry { return m.reg }
