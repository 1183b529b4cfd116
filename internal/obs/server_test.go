package obs

import (
	"encoding/json"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

func get(t *testing.T, srv *httptest.Server, path string) (int, string) {
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
	return resp.StatusCode, string(body)
}

func TestServerMetricsEndpoint(t *testing.T) {
	reg := NewRegistry()
	Canonical(reg)
	reg.Counter(MLPPivots).Add(17)
	s := NewServer(reg)
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	code, body := get(t, srv, "/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics status %d", code)
	}
	for _, name := range []string{MLPPivots, MLPRefactorizations, MLPFTUpdates, MLPDevexResets, MShardExtractionsSkipped} {
		if !strings.Contains(body, name) {
			t.Errorf("/metrics missing %s", name)
		}
	}
	if !strings.Contains(body, MLPPivots+" 17") {
		t.Error("/metrics did not carry the counter value")
	}
}

func TestServerHealthz(t *testing.T) {
	s := NewServer(NewRegistry())
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	// No health state yet: 503.
	code, _ := get(t, srv, "/healthz")
	if code != http.StatusServiceUnavailable {
		t.Fatalf("empty /healthz status %d, want 503", code)
	}

	s.SetHealth(HealthStatus{OK: true, Running: true, Scenario: "flashcrowd", Epoch: 7, Epochs: 50, AuditOK: true, SLOOk: true})
	code, body := get(t, srv, "/healthz")
	if code != http.StatusOK {
		t.Fatalf("/healthz status %d, want 200", code)
	}
	var h HealthStatus
	if err := json.Unmarshal([]byte(body), &h); err != nil {
		t.Fatal(err)
	}
	if !h.OK || h.Epoch != 7 || h.Scenario != "flashcrowd" || h.UptimeSeconds < 0 {
		t.Fatalf("bad health payload: %+v", h)
	}

	// A degraded epoch flips to 503 without dropping the payload.
	s.SetHealth(HealthStatus{OK: false, Running: true, Epoch: 8})
	code, body = get(t, srv, "/healthz")
	if code != http.StatusServiceUnavailable {
		t.Fatalf("degraded /healthz status %d, want 503", code)
	}
	if err := json.Unmarshal([]byte(body), &h); err != nil || h.Epoch != 8 {
		t.Fatalf("degraded payload lost: %v %+v", err, h)
	}
}

// TestServerSLOBreach serves an SLO state with an active breach and a
// per-region breakdown — the shape overlaylive feeds during an outage
// scenario.
func TestServerSLOBreach(t *testing.T) {
	s := NewServer(NewRegistry())
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	code, _ := get(t, srv, "/slo")
	if code != http.StatusServiceUnavailable {
		t.Fatalf("empty /slo status %d, want 503", code)
	}

	s.SetSLO(SLOStatus{
		Window: 8, Target: 0.5, Ok: false, WindowFrac: 0.625,
		Breaches: 3, MinWindowFrac: 0.375,
		Regions: []RegionSLO{
			{Region: 0, Active: 16, Met: 14, Frac: 0.875, WindowFrac: 1},
			{Region: 1, Active: 16, Met: 2, Frac: 0.125, WindowFrac: 0.25},
		},
		Streams: []StreamSLO{
			{Stream: 0, Active: 20, Met: 16, Frac: 0.8, WindowFrac: 1},
			{Stream: 1, Active: 12, Met: 0, Frac: 0, WindowFrac: 0.125},
		},
	})
	code, body := get(t, srv, "/slo")
	if code != http.StatusOK {
		t.Fatalf("/slo status %d", code)
	}
	var sl SLOStatus
	if err := json.Unmarshal([]byte(body), &sl); err != nil {
		t.Fatal(err)
	}
	if sl.Ok || sl.Breaches != 3 || len(sl.Regions) != 2 || len(sl.Streams) != 2 {
		t.Fatalf("bad SLO payload: %+v", sl)
	}
	if sl.Regions[1].Frac >= sl.Target {
		t.Fatalf("breaching region not visible: %+v", sl.Regions[1])
	}
	if sl.Streams[1].Frac >= sl.Target {
		t.Fatalf("breaching stream not visible: %+v", sl.Streams[1])
	}
}

func TestServerPprofAndExpvar(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("overlay_test_pprof_total").Inc()
	s := NewServer(reg)
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	code, body := get(t, srv, "/debug/pprof/")
	if code != http.StatusOK || !strings.Contains(body, "goroutine") {
		t.Fatalf("/debug/pprof/ status %d", code)
	}
	code, body = get(t, srv, "/debug/vars")
	if code != http.StatusOK || !strings.Contains(body, "overlay") {
		t.Fatalf("/debug/vars status %d", code)
	}
}

// TestHTTPServerCutsStalledHeader: a client that sends part of a request
// line and then stalls is disconnected once the header timeout passes, and
// not before.
func TestHTTPServerCutsStalledHeader(t *testing.T) {
	t.Parallel()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := HTTPServer(http.NotFoundHandler())
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ln) }()
	defer func() {
		srv.Close()
		<-served
	}()

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	start := time.Now()
	if _, err := conn.Write([]byte("GET /metr")); err != nil {
		t.Fatal(err)
	}
	if err := conn.SetReadDeadline(start.Add(headerTimeout + 5*time.Second)); err != nil {
		t.Fatal(err)
	}
	// Whatever the server says on the way out (net/http answers 400), it
	// must close the connection.
	_, err = io.ReadAll(conn)
	elapsed := time.Since(start)
	if err != nil {
		t.Fatalf("connection not closed %v after a stalled request line: %v", elapsed, err)
	}
	if elapsed < headerTimeout-100*time.Millisecond {
		t.Fatalf("connection closed after %v, before the %v header timeout", elapsed, headerTimeout)
	}
}
