// Command fdmonitor runs the failure-detecting side of the paper's
// architecture on a real network: it listens for UDP heartbeats, keeps one
// detector per peer, and logs suspicion transitions.
//
// The monitored set is given by -peers, or by -remote for a single
// fdheartbeat process (shorthand for one peer named by its address):
//
//	fdmonitor -listen :7007 -remote host:7008 -eta 1s
//	fdmonitor -listen :7007 -remote host:7008 -predictor ARIMA -margin CI_low -sync
//	fdmonitor -listen :7007 -peers api=10.0.0.1:7008,db=10.0.0.2:7008 -http :7070
//
// The HTTP endpoint exposes the live monitor:
//
//	GET    /cluster[?detail=1]            aggregate ClusterSnapshot; detail=1 adds per-peer rows (JSON)
//	POST   /cluster/peers?name=N&addr=A   start monitoring one more peer
//	DELETE /cluster/peers?name=N          stop monitoring a peer
//	GET    /status[?peer=N]               one peer's status (JSON); peer defaults to the -remote peer
//	GET    /stats                         unified monitor snapshot (JSON)
//	GET    /metrics                       live telemetry, Prometheus text format
//	GET    /events[?n=N]                  last N suspicion transitions, JSON Lines
//	GET    /qos?from=1m&to=5m[&peer=N]    windowed QoS over the durable history (JSON)
//	GET    /export?from=1m[&peer=N]       replayable binary window (feed to wanfd replay)
//	GET    /debug/pprof/                  net/http/pprof profiler
//	GET    /debug/vars                    expvar
//
// With -store-dir the monitor appends every heartbeat delay sample and
// suspicion transition to a durable on-disk store, which /qos and /export
// query; -store-max-bytes and -store-max-age bound retention.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"wanfd"
	"wanfd/internal/sim"
	"wanfd/internal/telemetry"
	"wanfd/internal/trace"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "fdmonitor:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		listen    = flag.String("listen", ":7007", "local UDP address")
		remote    = flag.String("remote", "", "heartbeater UDP address: monitor this one peer, named by its address")
		peersFlag = flag.String("peers", "", "comma-separated name=addr heartbeater list")
		httpAddr  = flag.String("http", "", "serve live state and telemetry over HTTP at this address")
		eta       = flag.Duration("eta", time.Second, "heartbeat period of the monitored processes")
		predictor = flag.String("predictor", "LAST", "delay predictor: ARIMA, LAST, LPF, MEAN, WINMEAN")
		margin    = flag.String("margin", "JAC_med", "safety margin: CI_low/med/high, JAC_low/med/high")
		sync      = flag.Bool("sync", false, "estimate each peer's clock offset before monitoring it")
		accrual   = flag.Float64("accrual", 0, "use φ-accrual detectors at this threshold instead of predictor+margin (0 = off)")
		stats     = flag.Duration("stats", 10*time.Second, "statistics print interval (0 disables)")
		events    = flag.Int("events", 512, "suspicion transitions kept for GET /events")
		storeDir  = flag.String("store-dir", "", "append durable QoS history (delay samples + suspicion transitions) to segment files in this directory")
		storeMax  = flag.Int64("store-max-bytes", 0, "retention: cap the durable history's total size (0 = unbounded)")
		storeAge  = flag.Duration("store-max-age", 0, "retention: drop durable history older than this (0 = keep everything)")
	)
	flag.Parse()
	var peers [][2]string
	switch {
	case *remote == "" && *peersFlag == "":
		return fmt.Errorf("either -remote (single peer) or -peers (cluster) is required")
	case *remote != "" && *peersFlag != "":
		return fmt.Errorf("-remote and -peers are mutually exclusive")
	case *remote != "":
		peers = [][2]string{{*remote, *remote}}
	default:
		var err error
		if peers, err = parsePeers(*peersFlag); err != nil {
			return err
		}
	}
	// Telemetry rides with the HTTP endpoint: no server, no registry, and
	// the heartbeat path stays uninstrumented.
	var reg *telemetry.Registry
	if *httpAddr != "" {
		reg = telemetry.NewRegistry(*events)
	}
	clk := sim.NewRealClock()
	st, err := openQoSStore(*storeDir, *storeMax, *storeAge, clk)
	if err != nil {
		return err
	}
	if st != nil {
		// LIFO defers: the monitor (deferred below) closes first, then the
		// store drains and fsyncs.
		defer st.Close()
	}
	opts := []wanfd.Option{
		wanfd.WithStore(st),
		wanfd.WithEta(*eta),
		wanfd.WithPredictor(*predictor),
		wanfd.WithMargin(*margin),
		wanfd.WithTelemetry(reg),
		wanfd.WithOnChange(func(peer string, suspected bool, at time.Duration) {
			state := "TRUST  "
			if suspected {
				state = "SUSPECT"
			}
			fmt.Printf("%s %s %s\n", clk.Epoch().Add(at).Format("15:04:05.000"), state, peer)
		}),
	}
	// meta stamps exported windows; a φ-accrual monitor is not replayable,
	// so it leaves the detector name empty.
	meta := qosMeta{detector: *predictor + "+" + *margin, eta: *eta, minTimeout: wanfd.DefaultMinTimeout}
	detector := meta.detector
	if *accrual > 0 {
		opts = append(opts, wanfd.WithAccrualThreshold(*accrual))
		meta.detector = ""
		detector = fmt.Sprintf("φ-accrual at %g", *accrual)
	}
	if *sync {
		opts = append(opts, wanfd.WithSyncClock())
	}
	for _, p := range peers {
		opts = append(opts, wanfd.WithPeer(p[0], p[1]))
	}
	mon, err := wanfd.NewMultiMonitor(*listen, opts...)
	if err != nil {
		return err
	}
	defer mon.Close()
	fmt.Printf("monitoring %d peers with %s, eta %v, listening on %s\n",
		len(peers), detector, *eta, mon.LocalAddr())
	if *sync {
		for _, p := range mon.Status() {
			fmt.Printf("  %s: clock offset %v\n", p.Peer, p.ClockOffset)
		}
	}
	if st != nil {
		fmt.Printf("durable QoS history in %s\n", *storeDir)
	}

	var httpErr chan error
	if *httpAddr != "" {
		srv, ln, errCh, err := serveHTTP(*httpAddr, handler(mon, *remote, clk, reg, st, meta))
		if err != nil {
			return err
		}
		defer srv.Close()
		httpErr = errCh
		fmt.Printf("cluster state at http://%s/cluster, metrics at http://%s/metrics\n", ln.Addr(), ln.Addr())
	}

	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, os.Interrupt, syscall.SIGTERM)

	var tick <-chan time.Time
	if *stats > 0 {
		ticker := time.NewTicker(*stats)
		tick = ticker.C
		defer ticker.Stop()
	}
	for {
		select {
		case <-sigCh:
			snap := mon.Snapshot()
			fmt.Printf("shutting down: %d peers (%d suspected), %d heartbeats (%d stale), %d suspicions\n",
				snap.Peers, snap.Suspected, snap.Totals.Heartbeats, snap.Totals.Stale, snap.Totals.Suspicions)
			return nil
		case err := <-httpErr:
			if err != nil && err != http.ErrServerClosed {
				return fmt.Errorf("http: %w", err)
			}
			return nil
		case <-tick:
			snap := mon.SnapshotDetail()
			fmt.Printf("%s cluster: %d peers, %d trusted, %d suspected, %d heartbeats (%d stale)\n",
				clk.WallTime().Format("15:04:05.000"), snap.Peers, snap.Trusted, snap.Suspected,
				snap.Totals.Heartbeats, snap.Totals.Stale)
			suspected := make([]string, 0, snap.Suspected)
			for _, p := range snap.PeerStatuses {
				if p.Suspected {
					suspected = append(suspected, p.Peer)
				}
			}
			if len(suspected) > 0 {
				fmt.Printf("  suspected: %s\n", strings.Join(suspected, ", "))
			}
		}
	}
}

// openQoSStore opens the durable store when -store-dir is set; a nil store
// (with nil error) means the feature is off and every downstream consumer
// is nil-safe.
func openQoSStore(dir string, maxBytes int64, maxAge time.Duration, clk *sim.RealClock) (*wanfd.Store, error) {
	if dir == "" {
		return nil, nil
	}
	return wanfd.OpenStore(wanfd.StoreConfig{
		Dir:      dir,
		MaxBytes: maxBytes,
		MaxAge:   maxAge,
		Clock:    clk,
		Epoch:    clk.Epoch().UnixNano(),
	})
}

// serveHTTP starts an HTTP server for the given handler and reports its
// exit on the returned channel.
func serveHTTP(addr string, h http.Handler) (*http.Server, net.Listener, chan error, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, nil, nil, err
	}
	srv := &http.Server{Handler: h}
	errCh := make(chan error, 1)
	go func() { errCh <- srv.Serve(ln) }()
	return srv, ln, errCh, nil
}

// statusBody is the JSON body of GET /status: one peer's state.
type statusBody struct {
	// Remote is the peer's name (its address, for the -remote peer).
	Remote string `json:"remote"`
	// Uptime is the time since the monitor started.
	Uptime time.Duration `json:"uptime"`
	// Suspected is the detector's current output.
	Suspected bool `json:"suspected"`
	// Timeout is the current adaptive timeout (0 for φ-accrual).
	Timeout time.Duration `json:"timeout"`
	// Phi is the φ-accrual suspicion level (0 for freshness-point).
	Phi float64 `json:"phi,omitempty"`
	// ClockOffset is the estimated peer clock offset.
	ClockOffset time.Duration `json:"clockOffset"`
	// DetectorStats carries the lifetime counters.
	wanfd.DetectorStats
}

// qosMeta stamps exported windows with the recording monitor's detector
// configuration, so wanfd replay can rebuild an equivalent detector.
type qosMeta struct {
	// detector is the live combination name ("" when not replayable, e.g.
	// φ-accrual mode).
	detector   string
	eta        time.Duration
	minTimeout time.Duration
}

// parseWindowArg reads one window-bound query parameter as a Go duration
// on the monitor's elapsed timeline; absent means 0 (session start for
// from, "now" for to).
func parseWindowArg(r *http.Request, key string) (time.Duration, error) {
	s := r.URL.Query().Get(key)
	if s == "" {
		return 0, nil
	}
	d, err := time.ParseDuration(s)
	if err != nil {
		return 0, fmt.Errorf("bad %s %q: want a Go duration like 90s or 5m", key, s)
	}
	return d, nil
}

// writeJSON answers with v as indented JSON.
func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

// mountQoS adds the unified-stats and durable-history endpoints. The store
// may be nil: /stats still serves (its Store section reports Enabled false)
// while /qos and /export answer 404.
func mountQoS(mux *http.ServeMux, mon *wanfd.MultiMonitor, st *wanfd.Store, meta qosMeta) {
	mux.HandleFunc("GET /stats", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, mon.Stats())
	})
	window := func(w http.ResponseWriter, r *http.Request) (from, to time.Duration, peer string, ok bool) {
		if st == nil {
			http.Error(w, "durable store not enabled (run with -store-dir)", http.StatusNotFound)
			return 0, 0, "", false
		}
		var err error
		if from, err = parseWindowArg(r, "from"); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return 0, 0, "", false
		}
		if to, err = parseWindowArg(r, "to"); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return 0, 0, "", false
		}
		return from, to, r.URL.Query().Get("peer"), true
	}
	mux.HandleFunc("GET /qos", func(w http.ResponseWriter, r *http.Request) {
		from, to, peer, ok := window(w, r)
		if !ok {
			return
		}
		report, err := st.Query(from, to, peer)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		writeJSON(w, report)
	})
	mux.HandleFunc("GET /export", func(w http.ResponseWriter, r *http.Request) {
		from, to, peer, ok := window(w, r)
		if !ok {
			return
		}
		win, err := st.Export(from, to, peer)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		win.Detector = meta.detector
		win.Eta = meta.eta
		win.MinTimeout = meta.minTimeout
		w.Header().Set("Content-Type", "application/octet-stream")
		_ = trace.WriteWindow(w, win)
	})
}

// parsePeers splits "name=addr,name=addr" into pairs, preserving order.
func parsePeers(spec string) ([][2]string, error) {
	var out [][2]string
	seen := make(map[string]bool)
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		name, addr, ok := strings.Cut(part, "=")
		if !ok || name == "" || addr == "" {
			return nil, fmt.Errorf("bad peer %q: want name=addr", part)
		}
		if seen[name] {
			return nil, fmt.Errorf("duplicate peer name %q", name)
		}
		seen[name] = true
		out = append(out, [2]string{name, addr})
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("empty -peers list")
	}
	return out, nil
}

// handler builds the HTTP front-end over a live MultiMonitor. remote, when
// set, is the peer GET /status reports without a ?peer= argument.
func handler(mon *wanfd.MultiMonitor, remote string, clk *sim.RealClock, reg *telemetry.Registry, st *wanfd.Store, meta qosMeta) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /status", func(w http.ResponseWriter, r *http.Request) {
		peer := r.URL.Query().Get("peer")
		if peer == "" {
			peer = remote
		}
		ps, err := mon.PeerStatusOf(peer)
		if err != nil {
			http.Error(w, err.Error(), http.StatusNotFound)
			return
		}
		writeJSON(w, statusBody{
			Remote:        ps.Peer,
			Uptime:        clk.Now(),
			Suspected:     ps.Suspected,
			Timeout:       ps.Timeout,
			Phi:           ps.Phi,
			ClockOffset:   ps.ClockOffset,
			DetectorStats: ps.DetectorStats,
		})
	})
	mux.HandleFunc("GET /cluster", func(w http.ResponseWriter, r *http.Request) {
		// The default body is the aggregate snapshot — constant-size however
		// large the cluster. ?detail=1 opts into the per-peer breakdown.
		if r.URL.Query().Get("detail") == "1" {
			writeJSON(w, mon.SnapshotDetail())
			return
		}
		writeJSON(w, mon.Snapshot())
	})
	mux.HandleFunc("/cluster/peers", func(w http.ResponseWriter, r *http.Request) {
		name := r.URL.Query().Get("name")
		if name == "" {
			http.Error(w, "missing name", http.StatusBadRequest)
			return
		}
		switch r.Method {
		case http.MethodPost:
			addr := r.URL.Query().Get("addr")
			if addr == "" {
				http.Error(w, "missing addr", http.StatusBadRequest)
				return
			}
			if err := mon.AddPeer(name, addr); err != nil {
				http.Error(w, err.Error(), http.StatusConflict)
				return
			}
			fmt.Printf("%s JOINED  %s (%s)\n", clk.WallTime().Format("15:04:05.000"), name, addr)
			w.WriteHeader(http.StatusCreated)
		case http.MethodDelete:
			if err := mon.RemovePeer(name); err != nil {
				http.Error(w, err.Error(), http.StatusNotFound)
				return
			}
			fmt.Printf("%s LEFT    %s\n", clk.WallTime().Format("15:04:05.000"), name)
			w.WriteHeader(http.StatusNoContent)
		default:
			http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		}
	})
	mountQoS(mux, mon, st, meta)
	telemetry.Mount(mux, reg)
	return mux
}
