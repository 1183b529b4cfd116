package daemon

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"

	"repro/internal/live"
	"repro/internal/netmodel"
)

// The HTTP/JSON API. Write endpoints (POST /deltas, /solve, /snapshot) go
// through the daemon's mutex; read endpoints (/placement, /design,
// /status's last-epoch part) serve from the atomically published View and
// never block on a running solve. The internal/obs server (/metrics,
// /healthz, /slo, /debug/vars, /debug/pprof) mounts on the same handler.
//
//	POST /deltas      ingest one Delta or a JSON array (strict decode)
//	GET  /placement   ?sink=S[&stream=K] — which reflectors feed the sink
//	GET  /design      the deployed design (netmodel JSON)
//	GET  /status      control-plane state + last epoch report
//	POST /solve       force a re-optimization now, respond with its epoch report
//	POST /snapshot    persist state to the configured snapshot path
//	GET  /scenario    the ingest history as a replayable live.Scenario

// Handler returns the daemon's full HTTP surface.
func (d *Daemon) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/deltas", d.handleDeltas)
	mux.HandleFunc("/placement", d.handlePlacement)
	mux.HandleFunc("/design", d.handleDesign)
	mux.HandleFunc("/status", d.handleStatus)
	mux.HandleFunc("/solve", d.handleSolve)
	mux.HandleFunc("/snapshot", d.handleSnapshot)
	mux.HandleFunc("/scenario", d.handleScenario)
	mux.Handle("/", d.srv.Handler())
	return mux
}

// apiError is every non-2xx JSON body.
type apiError struct {
	Error string `json:"error"`
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

func methodNotAllowed(w http.ResponseWriter, want string) {
	w.Header().Set("Allow", want)
	writeJSON(w, http.StatusMethodNotAllowed, apiError{Error: "method not allowed, use " + want})
}

// IngestResponse is POST /deltas' 202 body.
type IngestResponse struct {
	// Deltas/Edits count what THIS request queued; QueuedEdits the queue
	// total afterwards. Epoch is the epoch index that will consume them.
	Deltas      int `json:"deltas"`
	Edits       int `json:"edits"`
	QueuedEdits int `json:"queued_edits"`
	Epoch       int `json:"epoch"`
}

func (d *Daemon) handleDeltas(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		methodNotAllowed(w, http.MethodPost)
		return
	}
	deltas, err := netmodel.DecodeDeltas(http.MaxBytesReader(w, r.Body, 16<<20))
	if err != nil {
		writeJSON(w, http.StatusBadRequest, apiError{Error: err.Error()})
		return
	}
	edits := 0
	for i := range deltas {
		edits += deltas[i].Size()
	}
	queued, epoch, err := d.Ingest(deltas)
	if err != nil {
		writeJSON(w, http.StatusUnprocessableEntity, apiError{Error: err.Error()})
		return
	}
	writeJSON(w, http.StatusAccepted, IngestResponse{
		Deltas: len(deltas), Edits: edits, QueuedEdits: queued, Epoch: epoch,
	})
}

// PlacementStream is one stream's serving assignment for a sink.
type PlacementStream struct {
	Stream int `json:"stream"`
	// Unit is the demand-unit column behind the (sink, stream) pair.
	Unit      int     `json:"unit"`
	Threshold float64 `json:"threshold"`
	Active    bool    `json:"active"`
	// Reflectors serve this subscription (ascending); Met is the audit's
	// verdict on whether the assignment meets the reliability threshold.
	Reflectors []int `json:"reflectors"`
	Met        bool  `json:"met"`
}

// PlacementResponse answers "which reflectors feed sink S (stream m)?" from
// the published design of epoch Epoch.
type PlacementResponse struct {
	Sink    int               `json:"sink"`
	Epoch   int               `json:"epoch"`
	Streams []PlacementStream `json:"streams"`
}

func (d *Daemon) handlePlacement(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		methodNotAllowed(w, http.MethodGet)
		return
	}
	v := d.View()
	q := r.URL.Query()
	sink, err := strconv.Atoi(q.Get("sink"))
	if err != nil {
		writeJSON(w, http.StatusBadRequest, apiError{Error: "sink must be an integer viewer id"})
		return
	}
	if sink < 0 || sink >= v.In.NumViewers() {
		writeJSON(w, http.StatusNotFound, apiError{Error: fmt.Sprintf("sink %d outside [0,%d)", sink, v.In.NumViewers())})
		return
	}
	wantStream := -1
	if s := q.Get("stream"); s != "" {
		wantStream, err = strconv.Atoi(s)
		if err != nil {
			writeJSON(w, http.StatusBadRequest, apiError{Error: "stream must be an integer stream id"})
			return
		}
		if v.In.FindUnit(sink, wantStream) < 0 {
			writeJSON(w, http.StatusNotFound, apiError{Error: fmt.Sprintf("sink %d has no subscription slot for stream %d", sink, wantStream)})
			return
		}
	}
	resp := PlacementResponse{Sink: sink, Epoch: v.Epoch, Streams: []PlacementStream{}}
	lo, hi := v.In.ViewerRange(sink)
	for j := lo; j < hi; j++ {
		k := v.In.Commodity[j]
		if wantStream >= 0 && k != wantStream {
			continue
		}
		ps := PlacementStream{
			Stream:     k,
			Unit:       j,
			Threshold:  v.In.Threshold[j],
			Active:     v.In.Threshold[j] > 0,
			Reflectors: []int{},
			Met:        j < len(v.Audit.Met) && v.Audit.Met[j],
		}
		for i := range v.Design.Serve {
			if v.Design.Serve[i][j] {
				ps.Reflectors = append(ps.Reflectors, i)
			}
		}
		resp.Streams = append(resp.Streams, ps)
	}
	writeJSON(w, http.StatusOK, resp)
}

func (d *Daemon) handleDesign(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		methodNotAllowed(w, http.MethodGet)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	_ = netmodel.WriteDesignJSON(w, d.View().Design)
}

func (d *Daemon) handleStatus(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		methodNotAllowed(w, http.MethodGet)
		return
	}
	writeJSON(w, http.StatusOK, d.Status())
}

func (d *Daemon) handleSolve(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		methodNotAllowed(w, http.MethodPost)
		return
	}
	info, err := d.SolveNow()
	if err != nil {
		writeJSON(w, http.StatusInternalServerError, apiError{Error: err.Error()})
		return
	}
	writeJSON(w, http.StatusOK, info)
}

// SnapshotResponse is POST /snapshot's body.
type SnapshotResponse struct {
	Path  string `json:"path"`
	Epoch int    `json:"epoch"`
}

func (d *Daemon) handleSnapshot(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		methodNotAllowed(w, http.MethodPost)
		return
	}
	if d.cfg.SnapshotPath == "" {
		writeJSON(w, http.StatusConflict, apiError{Error: "no snapshot path configured (start with -snapshot)"})
		return
	}
	if err := d.SaveSnapshot(d.cfg.SnapshotPath); err != nil {
		writeJSON(w, http.StatusInternalServerError, apiError{Error: err.Error()})
		return
	}
	writeJSON(w, http.StatusOK, SnapshotResponse{Path: d.cfg.SnapshotPath, Epoch: d.Status().Epoch})
}

func (d *Daemon) handleScenario(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		methodNotAllowed(w, http.MethodGet)
		return
	}
	sc, err := d.Scenario()
	if err != nil {
		writeJSON(w, http.StatusInternalServerError, apiError{Error: err.Error()})
		return
	}
	w.Header().Set("Content-Type", "application/json")
	_ = live.WriteScenario(w, sc)
}
