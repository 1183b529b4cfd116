package daemon

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/agg"
	"repro/internal/core"
	"repro/internal/live"
	"repro/internal/netmodel"
	"repro/internal/obs"
)

// testInstance returns a small clustered multi-stream instance (the
// streamwave scenario's base) — multi-stream so placement and per-stream
// SLO rows are exercised for real.
func testInstance(t *testing.T, seed uint64) *netmodel.Instance {
	t.Helper()
	sc, err := live.Make("streamwave", seed, 4)
	if err != nil {
		t.Fatal(err)
	}
	return sc.Base
}

func testConfig(seed uint64) Config {
	return Config{
		Solver:     core.DefaultOptions(seed),
		Stickiness: 0.4,
		Pressure:   -1, // tests drive solves explicitly unless stated
	}
}

// joinDelta toggles one sink's threshold — the smallest meaningful churn.
func joinDelta(sink int, thr float64) netmodel.Delta {
	return netmodel.Delta{
		Note:         fmt.Sprintf("sink %d -> %g", sink, thr),
		SetThreshold: []netmodel.SinkValue{{Sink: sink, Value: thr}},
	}
}

func get(t *testing.T, srv *httptest.Server, path string) (int, []byte) {
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
	return resp.StatusCode, body
}

func post(t *testing.T, srv *httptest.Server, path, body string) (int, []byte) {
	t.Helper()
	resp, err := http.Post(srv.URL+path, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, out
}

// TestDaemonAPI walks the whole HTTP surface of a freshly provisioned
// daemon: status, placement, design, ingest (valid, malformed, out of
// range), forced solves, scenario export, and the mounted obs endpoints.
func TestDaemonAPI(t *testing.T) {
	in := testInstance(t, 7)
	d, err := New(in, testConfig(7))
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(d.Handler())
	defer srv.Close()

	code, body := get(t, srv, "/status")
	if code != http.StatusOK {
		t.Fatalf("/status: %d %s", code, body)
	}
	var st Status
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	if st.Epoch != 0 || st.Totals.Solves != 1 || st.PendingDeltas != 0 {
		t.Fatalf("fresh daemon status: %+v", st)
	}

	// Placement: full viewer, then one stream, then error paths.
	code, body = get(t, srv, "/placement?sink=0")
	if code != http.StatusOK {
		t.Fatalf("/placement?sink=0: %d %s", code, body)
	}
	var pl PlacementResponse
	if err := json.Unmarshal(body, &pl); err != nil {
		t.Fatal(err)
	}
	if pl.Sink != 0 || pl.Epoch != 0 || len(pl.Streams) == 0 {
		t.Fatalf("placement: %+v", pl)
	}
	for _, ps := range pl.Streams {
		if ps.Active && len(ps.Reflectors) == 0 {
			t.Fatalf("active subscription with no serving reflectors: %+v", ps)
		}
	}
	k := pl.Streams[0].Stream
	code, body = get(t, srv, fmt.Sprintf("/placement?sink=0&stream=%d", k))
	if code != http.StatusOK {
		t.Fatalf("/placement single stream: %d %s", code, body)
	}
	var one PlacementResponse
	if err := json.Unmarshal(body, &one); err != nil {
		t.Fatal(err)
	}
	if len(one.Streams) != 1 || !reflect.DeepEqual(one.Streams[0], pl.Streams[0]) {
		t.Fatalf("single-stream lookup disagrees with full lookup: %+v vs %+v", one.Streams, pl.Streams[0])
	}
	if code, _ = get(t, srv, "/placement?sink=banana"); code != http.StatusBadRequest {
		t.Fatalf("non-integer sink: %d", code)
	}
	if code, _ = get(t, srv, "/placement?sink=99999"); code != http.StatusNotFound {
		t.Fatalf("out-of-range sink: %d", code)
	}
	if code, _ = get(t, srv, "/placement?sink=0&stream=99"); code != http.StatusNotFound {
		t.Fatalf("unknown stream: %d", code)
	}

	// Ingest: single object, then an array, then the failure modes.
	code, body = post(t, srv, "/deltas", `{"note":"join","set_threshold":[{"sink":0,"value":0.3}]}`)
	if code != http.StatusAccepted {
		t.Fatalf("ingest single: %d %s", code, body)
	}
	var ir IngestResponse
	if err := json.Unmarshal(body, &ir); err != nil {
		t.Fatal(err)
	}
	if ir.Deltas != 1 || ir.Edits != 1 || ir.Epoch != 1 {
		t.Fatalf("ingest response: %+v", ir)
	}
	code, body = post(t, srv, "/deltas",
		`[{"set_threshold":[{"sink":1,"value":0.25}]},{"set_fanout":[{"ref":0,"value":3}]}]`)
	if code != http.StatusAccepted {
		t.Fatalf("ingest array: %d %s", code, body)
	}
	if err := json.Unmarshal(body, &ir); err != nil {
		t.Fatal(err)
	}
	if ir.Deltas != 2 || ir.QueuedEdits != 3 {
		t.Fatalf("ingest array response: %+v", ir)
	}
	if code, body = post(t, srv, "/deltas", `{"set_treshold":[]}`); code != http.StatusBadRequest {
		t.Fatalf("typo'd field must 400: %d %s", code, body)
	}
	if code, _ = post(t, srv, "/deltas", `{"set_threshold":[{"sink":99999,"value":0.3}]}`); code != http.StatusUnprocessableEntity {
		t.Fatalf("out-of-range delta must 422: %d", code)
	}
	// The failed batch must not have queued anything.
	code, body = get(t, srv, "/status")
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	if st.PendingDeltas != 3 || st.PendingEdits != 3 {
		t.Fatalf("queue after rejected batches: %+v", st)
	}

	// Force the solve; the queue drains into epoch 1.
	code, body = post(t, srv, "/solve", "")
	if code != http.StatusOK {
		t.Fatalf("/solve: %d %s", code, body)
	}
	var info EpochInfo
	if err := json.Unmarshal(body, &info); err != nil {
		t.Fatal(err)
	}
	if info.Epoch != 1 || info.Edits != 3 {
		t.Fatalf("solve info: %+v", info)
	}
	// Warm continuity: the live LP was patched in place, never rebuilt.
	// (Whether the install adopts the carried basis or refactorizes
	// depends on the edits — the round-trip test pins that telemetry.)
	if info.LPRebuilds != 0 || info.LPPatches == 0 {
		t.Fatalf("epoch 1 did not patch the live LP incrementally: %+v", info)
	}
	if v := d.View(); v.Epoch != 1 || v.In.Threshold[0] != 0.3 {
		t.Fatalf("published view not updated: epoch %d thr %g", v.Epoch, v.In.Threshold[0])
	}

	// Design decodes as a netmodel design of the right shape.
	code, body = get(t, srv, "/design")
	if code != http.StatusOK {
		t.Fatalf("/design: %d", code)
	}
	des, err := netmodel.ReadDesignJSON(bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if len(des.Serve) != in.NumReflectors {
		t.Fatalf("design has %d reflectors, want %d", len(des.Serve), in.NumReflectors)
	}

	// Scenario export replays: validated, carries the ingested events.
	code, body = get(t, srv, "/scenario")
	if code != http.StatusOK {
		t.Fatalf("/scenario: %d %s", code, body)
	}
	sc, err := live.ReadScenario(bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if len(sc.Events) != 3 || sc.Epochs != 2 {
		t.Fatalf("scenario: %d events over %d epochs", len(sc.Events), sc.Epochs)
	}

	// Mounted obs endpoints on the same listener.
	code, body = get(t, srv, "/metrics")
	if code != http.StatusOK || !strings.Contains(string(body), obs.MEpochsTotal) {
		t.Fatalf("/metrics: %d", code)
	}
	if !strings.Contains(string(body), obs.MStreamAvailability) {
		t.Fatal("/metrics missing per-stream SLO family")
	}
	if code, _ = get(t, srv, "/healthz"); code != http.StatusOK {
		t.Fatalf("/healthz: %d", code)
	}
	code, body = get(t, srv, "/slo")
	if code != http.StatusOK {
		t.Fatalf("/slo: %d", code)
	}
	var sl obs.SLOStatus
	if err := json.Unmarshal(body, &sl); err != nil {
		t.Fatal(err)
	}
	if len(sl.Streams) == 0 {
		t.Fatalf("/slo has no per-stream rows: %+v", sl)
	}

	// Method discipline.
	if code, _ = get(t, srv, "/deltas"); code != http.StatusMethodNotAllowed {
		t.Fatalf("GET /deltas: %d", code)
	}
	if code, _ = post(t, srv, "/placement?sink=0", ""); code != http.StatusMethodNotAllowed {
		t.Fatalf("POST /placement: %d", code)
	}
	if code, _ = post(t, srv, "/scenario", ""); code != http.StatusMethodNotAllowed {
		t.Fatalf("POST /scenario: %d", code)
	}
}

// TestDaemonPressureSolve: crossing the pressure threshold triggers a solve
// without waiting for the cadence timer.
func TestDaemonPressureSolve(t *testing.T) {
	cfg := testConfig(3)
	cfg.Pressure = 2
	d, err := New(testInstance(t, 3), cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan error, 1)
	go func() { done <- d.Run(ctx) }()

	if _, _, err := d.Ingest([]netmodel.Delta{joinDelta(0, 0.3), joinDelta(1, 0.25)}); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for d.Status().Epoch < 1 {
		if time.Now().After(deadline) {
			t.Fatal("pressure solve never happened")
		}
		time.Sleep(10 * time.Millisecond)
	}
	cancel()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if st := d.Status(); st.PendingEdits != 0 || st.Totals.Solves < 2 {
		t.Fatalf("after pressure solve: %+v", st)
	}
}

// TestDaemonSurvivesFailedSolve: a delta the daemon accepts can still make
// the next solve fail — every reflector's fanout set to 0 leaves the LP
// infeasible. Run must survive it: /healthz reports not ok while running,
// /placement keeps answering from the last published epoch, and /status
// counts the failed solve. Once a second delta restores the fanouts, the
// next solve publishes epoch 1, equal to the epoch 1 of a daemon that never
// saw either delta. Flat and aggregated.
func TestDaemonSurvivesFailedSolve(t *testing.T) {
	for _, aggregate := range []bool{false, true} {
		t.Run(fmt.Sprintf("aggregate=%v", aggregate), func(t *testing.T) {
			in := testInstance(t, 5)
			cfg := testConfig(5)
			if aggregate {
				cfg.Solver.Aggregate = &agg.Config{}
			}
			control, err := New(in, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := control.SolveNow(); err != nil {
				t.Fatal(err)
			}
			cfg.Pressure = 1 // every accepted delta triggers a solve in Run
			d, err := New(in, cfg)
			if err != nil {
				t.Fatal(err)
			}
			srv := httptest.NewServer(d.Handler())
			defer srv.Close()
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			done := make(chan error, 1)
			go func() { done <- d.Run(ctx) }()
			status := func() Status {
				t.Helper()
				code, body := get(t, srv, "/status")
				var st Status
				if code != http.StatusOK || json.Unmarshal(body, &st) != nil {
					t.Fatalf("/status: %d %s", code, body)
				}
				return st
			}
			await := func(what string, cond func(Status) bool) Status {
				t.Helper()
				for deadline := time.Now().Add(30 * time.Second); ; time.Sleep(5 * time.Millisecond) {
					select {
					case err := <-done:
						t.Fatalf("Run returned %v while waiting for %s", err, what)
					default:
					}
					if st := status(); cond(st) {
						return st
					}
					if time.Now().After(deadline) {
						t.Fatalf("timed out waiting for %s", what)
					}
				}
			}
			ingest := func(del netmodel.Delta) {
				t.Helper()
				body, _ := json.Marshal(del)
				if code, out := post(t, srv, "/deltas", string(body)); code != http.StatusAccepted {
					t.Fatalf("POST /deltas %q: %d %s", del.Note, code, out)
				}
			}
			_, placed := get(t, srv, "/placement?sink=0")

			down := netmodel.Delta{Note: "every reflector's fanout to 0"}
			up := netmodel.Delta{Note: "every reflector's fanout restored"}
			for i, f := range in.Fanout {
				down.SetFanout = append(down.SetFanout, netmodel.RefValue{Ref: i, Value: 0})
				up.SetFanout = append(up.SetFanout, netmodel.RefValue{Ref: i, Value: f})
			}
			ingest(down)
			st := await("the failed solve", func(st Status) bool { return st.Totals.FailedSolves > 0 })
			if st.Totals.FailedSolves != 1 || st.Totals.Solves != 1 || st.Epoch != 0 {
				t.Fatalf("status after the failed solve: %+v", st.Totals)
			}
			code, body := get(t, srv, "/healthz")
			var h obs.HealthStatus
			if err := json.Unmarshal(body, &h); err != nil {
				t.Fatal(err)
			}
			if code != http.StatusServiceUnavailable || h.OK || !h.Running {
				t.Fatalf("/healthz after the failed solve: %d %s", code, body)
			}
			if code, body := get(t, srv, "/placement?sink=0"); code != http.StatusOK || !bytes.Equal(body, placed) {
				t.Fatalf("/placement after the failed solve: %d %s, want epoch 0's %s", code, body, placed)
			}

			ingest(up)
			st = await("epoch 1", func(st Status) bool { return st.Epoch == 1 })
			if st.Totals.FailedSolves != 1 || st.Totals.Solves != 2 {
				t.Fatalf("status after the repaired solve: %+v", st.Totals)
			}
			if code, body := get(t, srv, "/healthz"); code != http.StatusOK {
				t.Fatalf("/healthz after the repaired solve: %d %s", code, body)
			}
			got, want := d.View(), control.View()
			if !reflect.DeepEqual(got.Design, want.Design) || got.Last.TrueCost != want.Last.TrueCost {
				t.Fatalf("epoch 1 after the failed solve: cost %.17g, control %.17g", got.Last.TrueCost, want.Last.TrueCost)
			}
			cancel()
			if err := <-done; err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestDaemonCadenceIsFixedDelay: the cadence timer restarts when a solve
// ends. A solve held off for several intervals (here the test holds the
// lock) is followed by a full interval, not by a back-to-back catch-up
// solve for the ticks it missed.
func TestDaemonCadenceIsFixedDelay(t *testing.T) {
	const interval = 200 * time.Millisecond
	cfg := testConfig(3)
	cfg.SolveInterval = interval
	d, err := New(testInstance(t, 3), cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan error, 1)
	d.mu.Lock()
	go func() { done <- d.Run(ctx) }()
	time.Sleep(3 * interval)
	last := d.View().Epoch
	d.mu.Unlock()

	var seen []time.Time
	deadline := time.Now().Add(10 * time.Second)
	for len(seen) < 3 {
		if time.Now().After(deadline) {
			t.Fatalf("only %d cadence solves in 10s", len(seen))
		}
		if e := d.View().Epoch; e > last {
			if e > last+1 {
				t.Fatalf("epochs %d..%d published between two polls", last+1, e)
			}
			seen = append(seen, time.Now())
			last = e
		}
		time.Sleep(time.Millisecond)
	}
	cancel()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(seen); i++ {
		if gap := seen[i].Sub(seen[i-1]); gap < interval/2 {
			t.Fatalf("solves %d and %d published %v apart, want about the %v interval", i, i+1, gap, interval)
		}
	}
}

// TestDaemonScenarioReplay is the record/replay contract end to end: the
// event log a daemon exports, replayed through live.Run with the matching
// policy, reproduces the daemon's epoch reports bit-for-bit in every field
// but the wall clock.
func TestDaemonScenarioReplay(t *testing.T) {
	cfg := testConfig(11)
	d, err := New(testInstance(t, 11), cfg)
	if err != nil {
		t.Fatal(err)
	}
	infos := []EpochInfo{d.View().Last}
	for e := 1; e < 6; e++ {
		var batch []netmodel.Delta
		batch = append(batch, joinDelta((e*3)%d.View().In.NumSinks, 0.2+0.05*float64(e%4)))
		if e%2 == 0 {
			batch = append(batch, netmodel.Delta{
				Note:      fmt.Sprintf("reprice %d", e),
				SetFanout: []netmodel.RefValue{{Ref: e % d.View().In.NumReflectors, Value: float64(2 + e%3)}},
			})
		}
		if _, _, err := d.Ingest(batch); err != nil {
			t.Fatal(err)
		}
		info, err := d.SolveNow()
		if err != nil {
			t.Fatal(err)
		}
		infos = append(infos, info)
	}

	var buf bytes.Buffer
	sc, err := d.Scenario()
	if err != nil {
		t.Fatal(err)
	}
	if err := live.WriteScenario(&buf, sc); err != nil {
		t.Fatal(err)
	}
	sc2, err := live.ReadScenario(&buf)
	if err != nil {
		t.Fatal(err)
	}

	rep, err := live.Run(sc2, live.Config{
		Solver: cfg.Solver,
		Policy: live.Policy{Name: "daemon", Stickiness: cfg.Stickiness, WarmStart: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Epochs) != len(infos) {
		t.Fatalf("replay ran %d epochs, daemon solved %d", len(rep.Epochs), len(infos))
	}
	for e, got := range rep.Epochs {
		want := infos[e]
		got.WallNS, want.WallNS = 0, 0
		got.StageWallNS, want.StageWallNS = nil, nil
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("epoch %d: replay diverged from the daemon:\nreplay: %+v\ndaemon: %+v", e, got, want)
		}
	}
}

// TestDaemonFeedsEpochFamilies: every solve feeds the per-epoch metric
// families through the engine, so the registry agrees with the reports the
// daemon returned — epoch count, epoch-wall histogram, churn sums and the
// active-viewer gauge.
func TestDaemonFeedsEpochFamilies(t *testing.T) {
	const rounds = 5
	d, err := New(testInstance(t, 17), testConfig(17))
	if err != nil {
		t.Fatal(err)
	}
	reg := d.reg
	infos := []EpochInfo{d.View().Last}
	for e := 1; e <= rounds; e++ {
		sink := (e * 5) % d.View().In.NumSinks
		if _, _, err := d.Ingest([]netmodel.Delta{joinDelta(sink, 0.2+0.05*float64(e%3))}); err != nil {
			t.Fatal(err)
		}
		info, err := d.SolveNow()
		if err != nil {
			t.Fatal(err)
		}
		infos = append(infos, info)
	}
	var viewerChurn float64
	arcChurn := 0
	for _, info := range infos {
		viewerChurn += info.ViewerChurn
		arcChurn += info.ArcChurn
	}
	if viewerChurn == 0 || arcChurn == 0 {
		t.Fatalf("the rounds moved nothing (viewer churn %g, arc churn %d); the sums check nothing", viewerChurn, arcChurn)
	}
	if got := reg.Counter(obs.MEpochsTotal).Value(); got != rounds+1 {
		t.Fatalf("%s = %g, want %d", obs.MEpochsTotal, got, rounds+1)
	}
	if got := reg.Histogram(obs.MEpochWall, nil).Count(); got != rounds+1 {
		t.Fatalf("%s count = %d, want %d", obs.MEpochWall, got, rounds+1)
	}
	if got := reg.Counter(obs.MChurnViewers).Value(); math.Abs(got-viewerChurn) > 1e-9 {
		t.Fatalf("%s = %g, reports sum to %g", obs.MChurnViewers, got, viewerChurn)
	}
	if got := reg.Counter(obs.MChurnArcs).Value(); got != float64(arcChurn) {
		t.Fatalf("%s = %g, reports sum to %d", obs.MChurnArcs, got, arcChurn)
	}
	if got, want := reg.Gauge(obs.MActiveViewers).Value(), infos[rounds].ActiveViewers; got != float64(want) {
		t.Fatalf("%s = %g, last report says %d", obs.MActiveViewers, got, want)
	}
}

// TestDaemonConcurrentIngestLookupSnapshot hammers the three access paths
// at once — ingest bursts, lock-free reads, snapshot saves — while the
// solver loop runs under pressure. Run with -race in CI's race matrix; the
// assertions here are liveness and consistency of whatever view is read.
func TestDaemonConcurrentIngestLookupSnapshot(t *testing.T) {
	cfg := testConfig(5)
	cfg.Pressure = 4
	cfg.SnapshotPath = filepath.Join(t.TempDir(), "snap.json")
	d, err := New(testInstance(t, 5), cfg)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(d.Handler())
	defer srv.Close()
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- d.Run(ctx) }()

	var wg sync.WaitGroup
	stop := make(chan struct{})
	numSinks := d.View().In.NumSinks
	numViewers := d.View().In.NumViewers()
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				_, _, err := d.Ingest([]netmodel.Delta{joinDelta((w*7+i)%numSinks, 0.3)})
				if err != nil {
					t.Errorf("ingest: %v", err)
					return
				}
			}
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			code, body := get(t, srv, fmt.Sprintf("/placement?sink=%d", i%numViewers))
			if code != http.StatusOK {
				t.Errorf("placement during churn: %d %s", code, body)
				return
			}
			v := d.View()
			if v == nil || v.Design == nil {
				t.Error("nil view during churn")
				return
			}
		}
	}()
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if err := d.SaveSnapshot(cfg.SnapshotPath); err != nil {
				t.Errorf("snapshot during churn: %v", err)
				return
			}
		}
	}()

	time.Sleep(500 * time.Millisecond)
	close(stop)
	wg.Wait()
	cancel()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	// Whatever was last snapshotted must restore.
	snap, err := LoadSnapshot(cfg.SnapshotPath)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Resume(snap, cfg); err != nil {
		t.Fatal(err)
	}
}
