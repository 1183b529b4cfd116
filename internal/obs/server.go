package obs

import (
	"encoding/json"
	"expvar"
	"net/http"
	"net/http/pprof"
	"sync/atomic"
	"time"
)

// HealthStatus is the /healthz payload: the liveness view of a running
// timeline (or a finished one, Running=false). OK false serves 503 so load
// balancers and alerting probes need no JSON parsing.
type HealthStatus struct {
	OK bool `json:"ok"`
	// Running reports whether a timeline is currently advancing.
	Running bool `json:"running"`
	// Scenario/Policy identify the run; Epoch/Epochs its progress.
	Scenario string `json:"scenario,omitempty"`
	Policy   string `json:"policy,omitempty"`
	Epoch    int    `json:"epoch"`
	Epochs   int    `json:"epochs"`
	// AuditOK is the last epoch's audit verdict; SLOOk whether it met the
	// availability target.
	AuditOK bool `json:"audit_ok"`
	SLOOk   bool `json:"slo_ok"`
	// UptimeSeconds is filled at serve time.
	UptimeSeconds float64 `json:"uptime_seconds"`
}

// RegionSLO is one region's availability row of an epoch: the epoch
// report's Regions and the /slo breakdown.
type RegionSLO struct {
	Region int `json:"region"`
	// Active/Met count this epoch's active demand units in the region and
	// how many met their reliability threshold; Frac is Met/Active.
	Active int     `json:"active_sinks"`
	Met    int     `json:"met"`
	Frac   float64 `json:"frac"`
	// WindowFrac is the fraction of the trailing SLO window's epochs in
	// which this region alone met the availability target.
	WindowFrac float64 `json:"window_frac"`
}

// StreamSLO is one stream's availability row of an epoch: the region rule
// applied stream-locally. Where RegionSLO answers "where did the outage
// land", this answers "which channel is degraded" — the paper's
// commodities are live streams, and a reflector failure typically takes
// out one stream's serving arcs across every region at once.
type StreamSLO struct {
	Stream int `json:"stream"`
	// Active/Met count this epoch's active demand units on the stream and
	// how many met their reliability threshold; Frac is Met/Active.
	Active int     `json:"active_sinks"`
	Met    int     `json:"met"`
	Frac   float64 `json:"frac"`
	// WindowFrac is the fraction of the trailing SLO window's epochs in
	// which this stream alone met the availability target.
	WindowFrac float64 `json:"window_frac"`
}

// SLOStatus is the /slo payload: the windowed availability SLO plus
// per-region and per-stream breakdowns (the alerting view of the §1.3
// monitoring loop).
type SLOStatus struct {
	Window int     `json:"window"`
	Target float64 `json:"target"`
	// Ok / WindowFrac mirror the current epoch's SLO fields; Breaches and
	// MinWindowFrac summarize the run so far.
	Ok            bool        `json:"ok"`
	WindowFrac    float64     `json:"window_frac"`
	Breaches      int         `json:"breaches"`
	MinWindowFrac float64     `json:"min_window_frac"`
	Regions       []RegionSLO `json:"regions,omitempty"`
	Streams       []StreamSLO `json:"streams,omitempty"`
}

// Server is the opt-in debug/telemetry endpoint: /metrics (Prometheus
// text), /healthz, /slo, /debug/vars (expvar), and /debug/pprof. It is the
// seed of the overlayd daemon — overlaylive -listen serves one during a
// live run. State setters are safe for concurrent use with serving.
type Server struct {
	reg    *Registry
	mux    *http.ServeMux
	start  time.Time
	health atomic.Pointer[HealthStatus]
	slo    atomic.Pointer[SLOStatus]
}

// NewServer builds a server exposing the registry. The registry is also
// published to expvar under "overlay" (first server wins; /debug/vars
// serves the process-global expvar set).
func NewServer(reg *Registry) *Server {
	s := &Server{reg: reg, mux: http.NewServeMux(), start: time.Now()}
	PublishExpvar("overlay", reg)
	s.mux.HandleFunc("/metrics", s.serveMetrics)
	s.mux.HandleFunc("/healthz", s.serveHealth)
	s.mux.HandleFunc("/slo", s.serveSLO)
	s.mux.Handle("/debug/vars", expvar.Handler())
	s.mux.HandleFunc("/debug/pprof/", pprof.Index)
	s.mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	s.mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	s.mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	s.mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return s
}

// Handler returns the server's routing handler, for mounting on any
// net/http server (or an httptest one).
func (s *Server) Handler() http.Handler { return s.mux }

// headerTimeout bounds how long an HTTPServer waits for a request's
// headers.
const headerTimeout = 5 * time.Second

// HTTPServer returns the http.Server that overlayd and overlaylive -listen
// serve h with. A client that trickles its request headers must not hold a
// connection and its goroutine forever, so the header read is bounded in
// time and size. The body read and the response write stay unbounded: an
// overlayd ingest can legitimately wait behind a multi-second solve.
func HTTPServer(h http.Handler) *http.Server {
	return &http.Server{Handler: h, ReadHeaderTimeout: headerTimeout, MaxHeaderBytes: 64 << 10}
}

// SetHealth atomically replaces the /healthz state.
func (s *Server) SetHealth(h HealthStatus) { s.health.Store(&h) }

// SetSLO atomically replaces the /slo state.
func (s *Server) SetSLO(sl SLOStatus) { s.slo.Store(&sl) }

func (s *Server) serveMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_ = s.reg.WriteProm(w)
}

func (s *Server) serveHealth(w http.ResponseWriter, _ *http.Request) {
	h := s.health.Load()
	var out HealthStatus
	if h != nil {
		out = *h
	}
	out.UptimeSeconds = time.Since(s.start).Seconds()
	code := http.StatusOK
	if h == nil || !out.OK {
		code = http.StatusServiceUnavailable
	}
	writeJSON(w, code, out)
}

func (s *Server) serveSLO(w http.ResponseWriter, _ *http.Request) {
	sl := s.slo.Load()
	if sl == nil {
		writeJSON(w, http.StatusServiceUnavailable, map[string]string{"error": "no SLO state yet"})
		return
	}
	writeJSON(w, http.StatusOK, sl)
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}
