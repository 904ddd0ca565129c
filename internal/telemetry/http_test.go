package telemetry

import (
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"wanfd/internal/nekostat"
)

func TestMountServesFullSurface(t *testing.T) {
	reg := NewRegistry(8)
	reg.Counter(MetricHeartbeats, "h", "peer", "a").Add(3)
	reg.DetectorMetrics("a").Transition(true, time.Second)

	mux := http.NewServeMux()
	Mount(mux, reg)
	srv := httptest.NewServer(mux)
	defer srv.Close()

	get := func(path string) (int, string, string) {
		t.Helper()
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, string(body), resp.Header.Get("Content-Type")
	}

	code, body, ctype := get("/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics status = %d", code)
	}
	if !strings.HasPrefix(ctype, "text/plain") {
		t.Errorf("/metrics content type = %q", ctype)
	}
	if !strings.Contains(body, MetricHeartbeats+`{peer="a"} 3`) {
		t.Errorf("/metrics missing counter:\n%s", body)
	}

	code, body, ctype = get("/events")
	if code != http.StatusOK || !strings.Contains(body, `"StartSuspect"`) {
		t.Errorf("/events = %d %q", code, body)
	}
	if ctype != "application/x-ndjson" {
		t.Errorf("/events content type = %q", ctype)
	}

	if code, _, _ := get("/debug/pprof/cmdline"); code != http.StatusOK {
		t.Errorf("/debug/pprof/cmdline status = %d", code)
	}
	if code, body, _ := get("/debug/vars"); code != http.StatusOK || !strings.HasPrefix(body, "{") {
		t.Errorf("/debug/vars = %d %q", code, body)
	}
}

func TestEventsHandlerLimitAndErrors(t *testing.T) {
	ring := NewEventRing(8)
	for i := 0; i < 5; i++ {
		ring.Record(nekostat.Event{
			Kind:   nekostat.KindStartSuspect,
			At:     time.Duration(i) * time.Second,
			Source: "p",
		})
	}
	srv := httptest.NewServer(EventsHandler(ring))
	defer srv.Close()

	resp, err := http.Get(srv.URL + "?n=2")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if lines := strings.Count(strings.TrimSpace(string(body)), "\n") + 1; lines != 2 {
		t.Errorf("n=2 returned %d lines: %q", lines, body)
	}

	resp, err = http.Get(srv.URL + "?n=bogus")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad n status = %d, want 400", resp.StatusCode)
	}

	req, _ := http.NewRequest(http.MethodPost, srv.URL, nil)
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("POST status = %d, want 405", resp.StatusCode)
	}
}

func TestMetricsHandlerNilRegistry(t *testing.T) {
	srv := httptest.NewServer(MetricsHandler(nil))
	defer srv.Close()
	resp, err := http.Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || len(body) != 0 {
		t.Errorf("nil registry = %d %q, want 200 with empty body", resp.StatusCode, body)
	}
}
