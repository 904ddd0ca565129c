package main

import (
	"encoding/json"
	"fmt"
	"io"
	stdnet "net"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"wanfd"
	"wanfd/internal/nekostat"
	"wanfd/internal/sim"
	"wanfd/internal/telemetry"
	"wanfd/internal/trace"
)

// freeUDPPorts reserves n distinct loopback UDP ports and releases them.
func freeUDPPorts(t *testing.T, n int) []string {
	t.Helper()
	addrs := make([]string, 0, n)
	conns := make([]interface{ Close() error }, 0, n)
	for i := 0; i < n; i++ {
		pc, err := stdnet.ListenPacket("udp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		conns = append(conns, pc)
		addrs = append(addrs, pc.LocalAddr().String())
	}
	for _, c := range conns {
		_ = c.Close()
	}
	return addrs
}

func waitFor(t *testing.T, timeout time.Duration, cond func() bool) bool {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if cond() {
			return true
		}
		time.Sleep(10 * time.Millisecond)
	}
	return cond()
}

func httpGet(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(body)
}

// metricValue finds `series value` in a Prometheus exposition body, e.g.
// metricValue(body, `wanfd_heartbeats_total{peer="alpha"}`).
func metricValue(t *testing.T, body, series string) (float64, bool) {
	t.Helper()
	for _, line := range strings.Split(body, "\n") {
		rest, ok := strings.CutPrefix(line, series+" ")
		if !ok {
			continue
		}
		v, err := strconv.ParseFloat(strings.TrimSpace(rest), 64)
		if err != nil {
			t.Fatalf("bad sample line %q: %v", line, err)
		}
		return v, true
	}
	return 0, false
}

func TestParsePeers(t *testing.T) {
	tests := []struct {
		spec    string
		want    [][2]string
		wantErr bool
	}{
		{spec: "a=1.2.3.4:7", want: [][2]string{{"a", "1.2.3.4:7"}}},
		{
			spec: " a=h:1 , b=h:2 ",
			want: [][2]string{{"a", "h:1"}, {"b", "h:2"}},
		},
		{spec: "", wantErr: true},
		{spec: ",,", wantErr: true},
		{spec: "noequals", wantErr: true},
		{spec: "=addr", wantErr: true},
		{spec: "name=", wantErr: true},
		{spec: "a=h:1,a=h:2", wantErr: true},
	}
	for _, tc := range tests {
		got, err := parsePeers(tc.spec)
		if tc.wantErr {
			if err == nil {
				t.Errorf("parsePeers(%q) = %v, want error", tc.spec, got)
			}
			continue
		}
		if err != nil {
			t.Errorf("parsePeers(%q): %v", tc.spec, err)
			continue
		}
		if len(got) != len(tc.want) {
			t.Errorf("parsePeers(%q) = %v, want %v", tc.spec, got, tc.want)
			continue
		}
		for i := range got {
			if got[i] != tc.want[i] {
				t.Errorf("parsePeers(%q)[%d] = %v, want %v", tc.spec, i, got[i], tc.want[i])
			}
		}
	}
}

// TestClusterHTTPSurface drives the full cluster HTTP surface against a
// live MultiMonitor: membership over /cluster/peers, the snapshot at
// /cluster, Prometheus metrics at /metrics (including the per-peer QoS
// series once a real suspicion happens), and the /events JSONL stream.
func TestClusterHTTPSurface(t *testing.T) {
	addrs := freeUDPPorts(t, 3)
	monAddr, aAddr, bAddr := addrs[0], addrs[1], addrs[2]
	const eta = 25 * time.Millisecond

	reg := telemetry.NewRegistry(64)
	mon, err := wanfd.NewMultiMonitor(monAddr,
		wanfd.WithEta(eta),
		wanfd.WithMinTimeout(-1),
		wanfd.WithTelemetry(reg),
		wanfd.WithPeer("alpha", aAddr),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer mon.Close()

	srv := httptest.NewServer(handler(mon, "", sim.NewRealClock(), reg, nil, qosMeta{}))
	defer srv.Close()

	hbA, err := wanfd.RunHeartbeater(wanfd.HeartbeaterConfig{Listen: aAddr, Remote: monAddr, Eta: eta})
	if err != nil {
		t.Fatal(err)
	}
	defer hbA.Close()

	// Membership over HTTP: join beta, reject garbage, query the snapshot.
	code, body := httpGet(t, srv.URL+"/cluster")
	if code != http.StatusOK {
		t.Fatalf("/cluster = %d: %s", code, body)
	}
	var snap wanfd.ClusterSnapshot
	if err := json.Unmarshal([]byte(body), &snap); err != nil {
		t.Fatalf("/cluster body: %v", err)
	}
	if snap.Peers != 1 {
		t.Fatalf("snapshot peers = %d, want 1", snap.Peers)
	}
	if len(snap.PeerStatuses) != 0 {
		t.Fatalf("default /cluster carries %d per-peer rows, want aggregate only", len(snap.PeerStatuses))
	}

	// detail=1 opts into the per-peer breakdown.
	code, body = httpGet(t, srv.URL+"/cluster?detail=1")
	if code != http.StatusOK {
		t.Fatalf("/cluster?detail=1 = %d: %s", code, body)
	}
	var detail wanfd.ClusterSnapshot
	if err := json.Unmarshal([]byte(body), &detail); err != nil {
		t.Fatalf("/cluster?detail=1 body: %v", err)
	}
	if len(detail.PeerStatuses) != 1 || detail.PeerStatuses[0].Peer != "alpha" {
		t.Fatalf("/cluster?detail=1 peer rows = %+v, want [alpha]", detail.PeerStatuses)
	}

	// /status serves any member by name; with no -remote peer to default
	// to, a bare /status names nobody.
	if code, body := httpGet(t, srv.URL+"/status?peer=alpha"); code != http.StatusOK || !strings.Contains(body, `"remote": "alpha"`) {
		t.Errorf("/status?peer=alpha = %d: %s", code, body)
	}
	if code, _ := httpGet(t, srv.URL+"/status"); code != http.StatusNotFound {
		t.Errorf("/status without a peer = %d, want 404", code)
	}

	post := func(query string) int {
		t.Helper()
		resp, err := http.Post(srv.URL+"/cluster/peers?"+query, "", nil)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	if code := post("name=beta&addr=" + bAddr); code != http.StatusCreated {
		t.Fatalf("POST beta = %d, want 201", code)
	}
	if resp, err := http.Post(srv.URL+"/cluster", "", nil); err != nil || resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("POST /cluster = %v, %v; want 405", resp, err)
	} else {
		resp.Body.Close()
	}
	if code := post("addr=" + bAddr); code != http.StatusBadRequest {
		t.Errorf("POST without name = %d, want 400", code)
	}
	if code := post("name=beta&addr=127.0.0.1:1"); code != http.StatusConflict {
		t.Errorf("POST duplicate = %d, want 409", code)
	}

	hbB, err := wanfd.RunHeartbeater(wanfd.HeartbeaterConfig{Listen: bAddr, Remote: monAddr, Eta: eta})
	if err != nil {
		t.Fatal(err)
	}
	defer hbB.Close()

	if !waitFor(t, 5*time.Second, func() bool {
		a, errA := mon.PeerStatusOf("alpha")
		b, errB := mon.PeerStatusOf("beta")
		// ≥10 each: the delay histogram is batched per peer (flushed every
		// 8th observation), so ≥8 heartbeats guarantee a flush has landed
		// before the scrape below asserts on the histogram count.
		return errA == nil && errB == nil && a.Heartbeats >= 10 && b.Heartbeats >= 10
	}) {
		t.Fatal("peers never delivered heartbeats")
	}

	// The unified snapshot serves on the cluster mux too; without a store
	// its Store section reports disabled.
	code, statsBody := httpGet(t, srv.URL+"/stats")
	if code != http.StatusOK {
		t.Fatalf("/stats = %d: %s", code, statsBody)
	}
	var unified wanfd.Stats
	if err := json.Unmarshal([]byte(statsBody), &unified); err != nil {
		t.Fatalf("/stats body: %v\n%s", err, statsBody)
	}
	if unified.Detector.Heartbeats < 10 {
		t.Errorf("unified stats heartbeats = %d, want >= 10", unified.Detector.Heartbeats)
	}
	if unified.Store.Enabled {
		t.Errorf("store reported enabled without -store-dir:\n%s", statsBody)
	}
	if code, body := httpGet(t, srv.URL+"/qos"); code != http.StatusNotFound {
		t.Errorf("/qos without a store = %d (%s), want 404", code, body)
	}

	// Counter monotonicity across scrapes while heartbeats keep flowing.
	_, m1 := httpGet(t, srv.URL+"/metrics")
	v1, ok := metricValue(t, m1, `wanfd_heartbeats_total{peer="alpha"}`)
	if !ok || v1 < 5 {
		t.Fatalf("first scrape heartbeats = %v (found %v):\n%s", v1, ok, m1)
	}
	if v, ok := metricValue(t, m1, `wanfd_heartbeat_delay_seconds_count`); !ok || v < 5 {
		t.Errorf("delay histogram count = %v (found %v):\n%s", v, ok, m1)
	}
	if !strings.Contains(m1, `wanfd_heartbeat_delay_seconds_bucket{le="+Inf"}`) {
		t.Errorf("delay histogram +Inf bucket missing from:\n%s", m1)
	}
	time.Sleep(4 * eta)
	_, m2 := httpGet(t, srv.URL+"/metrics")
	v2, ok := metricValue(t, m2, `wanfd_heartbeats_total{peer="alpha"}`)
	if !ok || v2 < v1 {
		t.Errorf("counter not monotone: %v then %v", v1, v2)
	}

	// Kill beta's heartbeater and wait for a genuine suspicion so the
	// transition counter, QoS gauges, and event stream all light up.
	_ = hbB.Close()
	if !waitFor(t, 5*time.Second, func() bool {
		s, err := mon.Suspected("beta")
		return err == nil && s
	}) {
		t.Fatal("dead peer never suspected")
	}

	_, m3 := httpGet(t, srv.URL+"/metrics")
	if v, ok := metricValue(t, m3, `wanfd_suspicion_transitions_total{peer="beta"}`); !ok || v < 1 {
		t.Errorf("transitions = %v (found %v):\n%s", v, ok, m3)
	}
	if v, ok := metricValue(t, m3, `wanfd_qos_pa{peer="beta"}`); !ok || v < 0 || v > 1 {
		t.Errorf("qos_pa = %v (found %v):\n%s", v, ok, m3)
	}

	// The same transition must be visible as an event, JSONL round-trips
	// through the nekostat codec.
	code, evBody := httpGet(t, srv.URL+"/events")
	if code != http.StatusOK {
		t.Fatalf("/events = %d", code)
	}
	evs, err := nekostat.ReadEvents(strings.NewReader(evBody))
	if err != nil {
		t.Fatalf("/events body does not round-trip: %v\n%s", err, evBody)
	}
	var sawBeta bool
	for _, e := range evs {
		if e.Source == "beta" && e.Kind == nekostat.KindStartSuspect {
			sawBeta = true
		}
	}
	if !sawBeta {
		t.Errorf("no StartSuspect event for beta in %d events", len(evs))
	}

	// Leave: DELETE drops the peer and its metric series.
	req, _ := http.NewRequest(http.MethodDelete, srv.URL+"/cluster/peers?name=beta", nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("DELETE beta = %d, want 204", resp.StatusCode)
	}
	req, _ = http.NewRequest(http.MethodDelete, srv.URL+"/cluster/peers?name=beta", nil)
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("DELETE unknown = %d, want 404", resp.StatusCode)
	}
	_, m4 := httpGet(t, srv.URL+"/metrics")
	if strings.Contains(m4, `peer="beta"`) {
		t.Errorf("removed peer still exported:\n%s", m4)
	}
	if _, ok := metricValue(t, m4, `wanfd_heartbeats_total{peer="alpha"}`); !ok {
		t.Errorf("surviving peer's series lost:\n%s", m4)
	}
}

// TestSingleHTTPSurface covers the -remote mode — a one-peer cluster named
// by the remote address: /status JSON plus the shared telemetry surface on
// the same mux.
func TestSingleHTTPSurface(t *testing.T) {
	addrs := freeUDPPorts(t, 2)
	monAddr, hbAddr := addrs[0], addrs[1]
	const eta = 25 * time.Millisecond

	hb, err := wanfd.RunHeartbeater(wanfd.HeartbeaterConfig{Listen: hbAddr, Remote: monAddr, Eta: eta})
	if err != nil {
		t.Fatal(err)
	}
	defer hb.Close()

	reg := telemetry.NewRegistry(16)
	mon, err := wanfd.NewMultiMonitor(monAddr,
		wanfd.WithEta(eta),
		wanfd.WithTelemetry(reg),
		wanfd.WithPeer(hbAddr, hbAddr),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer mon.Close()

	srv := httptest.NewServer(handler(mon, hbAddr, sim.NewRealClock(), reg, nil, qosMeta{}))
	defer srv.Close()

	if !waitFor(t, 5*time.Second, func() bool {
		return mon.Stats().Detector.Heartbeats >= 5
	}) {
		t.Fatal("no heartbeats delivered")
	}

	code, body := httpGet(t, srv.URL+"/status")
	if code != http.StatusOK {
		t.Fatalf("/status = %d: %s", code, body)
	}
	var st statusBody
	if err := json.Unmarshal([]byte(body), &st); err != nil {
		t.Fatalf("/status body: %v\n%s", err, body)
	}
	if st.Remote != hbAddr || st.Heartbeats < 5 || st.Suspected {
		t.Errorf("status = %+v", st)
	}
	if st.Uptime <= 0 {
		t.Errorf("uptime = %v", st.Uptime)
	}
	// The body's keys are a published contract (phi is omitted while 0).
	var keys map[string]json.RawMessage
	if err := json.Unmarshal([]byte(body), &keys); err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"remote", "uptime", "suspected", "timeout", "clockOffset", "Heartbeats", "Stale", "Suspicions"} {
		if _, ok := keys[k]; !ok {
			t.Errorf("/status lacks key %q:\n%s", k, body)
		}
		delete(keys, k)
	}
	if len(keys) != 0 {
		t.Errorf("/status has unexpected keys %v", keys)
	}

	_, metrics := httpGet(t, srv.URL+"/metrics")
	series := fmt.Sprintf(`wanfd_heartbeats_total{peer=%q}`, hbAddr)
	if v, ok := metricValue(t, metrics, series); !ok || v < 5 {
		t.Errorf("heartbeats = %v (found %v):\n%s", v, ok, metrics)
	}

	if code, _ := httpGet(t, srv.URL+"/debug/pprof/cmdline"); code != http.StatusOK {
		t.Errorf("/debug/pprof/cmdline = %d", code)
	}

	code, statsBody := httpGet(t, srv.URL+"/stats")
	if code != http.StatusOK {
		t.Fatalf("/stats = %d: %s", code, statsBody)
	}
	var unified wanfd.Stats
	if err := json.Unmarshal([]byte(statsBody), &unified); err != nil {
		t.Fatalf("/stats body: %v\n%s", err, statsBody)
	}
	if unified.Detector.Heartbeats < 5 || unified.Store.Enabled {
		t.Errorf("unified stats = %+v, want >=5 heartbeats and a disabled store", unified)
	}
	if code, _ := httpGet(t, srv.URL+"/export"); code != http.StatusNotFound {
		t.Errorf("/export without a store = %d, want 404", code)
	}
}

// TestDurableStoreHTTPSurface runs a one-peer monitor with the durable
// QoS store attached and drives the whole history surface over HTTP:
// /stats reports the store counters, /qos recomputes windowed QoS from
// disk, and /export yields a binary window that round-trips through the
// trace codec with the detector configuration stamped.
func TestDurableStoreHTTPSurface(t *testing.T) {
	addrs := freeUDPPorts(t, 2)
	monAddr, hbAddr := addrs[0], addrs[1]
	const eta = 25 * time.Millisecond

	hb, err := wanfd.RunHeartbeater(wanfd.HeartbeaterConfig{Listen: hbAddr, Remote: monAddr, Eta: eta})
	if err != nil {
		t.Fatal(err)
	}
	defer hb.Close()

	clk := sim.NewRealClock()
	st, err := openQoSStore(t.TempDir(), 0, 0, clk)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()

	reg := telemetry.NewRegistry(16)
	mon, err := wanfd.NewMultiMonitor(monAddr,
		wanfd.WithEta(eta),
		wanfd.WithTelemetry(reg),
		wanfd.WithStore(st),
		wanfd.WithPeer(hbAddr, hbAddr),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer mon.Close()

	meta := qosMeta{detector: "LAST+JAC_med", eta: eta, minTimeout: wanfd.DefaultMinTimeout}
	srv := httptest.NewServer(handler(mon, hbAddr, clk, reg, st, meta))
	defer srv.Close()

	if !waitFor(t, 5*time.Second, func() bool {
		return mon.Stats().Detector.Heartbeats >= 10
	}) {
		t.Fatal("no heartbeats delivered")
	}

	code, statsBody := httpGet(t, srv.URL+"/stats")
	if code != http.StatusOK {
		t.Fatalf("/stats = %d: %s", code, statsBody)
	}
	var unified wanfd.Stats
	if err := json.Unmarshal([]byte(statsBody), &unified); err != nil {
		t.Fatalf("/stats body: %v\n%s", err, statsBody)
	}
	if !unified.Store.Enabled {
		t.Fatalf("store not reported enabled:\n%s", statsBody)
	}
	if unified.Store.Dropped != 0 {
		t.Errorf("store dropped %d records under light load", unified.Store.Dropped)
	}

	code, qosBody := httpGet(t, srv.URL+"/qos?from=0s")
	if code != http.StatusOK {
		t.Fatalf("/qos = %d: %s", code, qosBody)
	}
	var report wanfd.WindowReport
	if err := json.Unmarshal([]byte(qosBody), &report); err != nil {
		t.Fatalf("/qos body: %v\n%s", err, qosBody)
	}
	if len(report.Peers) != 1 || report.Peers[0].Peer != hbAddr {
		t.Fatalf("window peers = %+v, want one row for %q", report.Peers, hbAddr)
	}
	if pw := report.Peers[0]; pw.Samples < 10 || pw.DelayMs.N != pw.Samples {
		t.Errorf("windowed samples = %d (summary N %d), want >= 10", pw.Samples, pw.DelayMs.N)
	}
	if code, body := httpGet(t, srv.URL+"/qos?from=bogus"); code != http.StatusBadRequest {
		t.Errorf("/qos?from=bogus = %d (%s), want 400", code, body)
	}

	resp, err := http.Get(srv.URL + "/export?from=0s")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/export = %d", resp.StatusCode)
	}
	win, err := trace.ReadWindow(resp.Body)
	if err != nil {
		t.Fatalf("/export body does not decode: %v", err)
	}
	if win.Detector != meta.detector || win.Eta != eta || win.MinTimeout != wanfd.DefaultMinTimeout {
		t.Errorf("window header = (%q, %v, %v), want (%q, %v, %v)",
			win.Detector, win.Eta, win.MinTimeout, meta.detector, eta, wanfd.DefaultMinTimeout)
	}
	if len(win.Samples) < 10 {
		t.Errorf("exported %d samples, want >= 10", len(win.Samples))
	}
	for _, s := range win.Samples {
		if s.Peer != hbAddr {
			t.Fatalf("sample for unexpected peer %q", s.Peer)
		}
	}
}
