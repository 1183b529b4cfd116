package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/daemon"
	"repro/internal/gen"
	"repro/internal/netmodel"
	"repro/internal/obs"
	"repro/internal/stats"
)

// overlaydShape sizes the serving workload.
type overlaydShape struct {
	regions, isps, perRegion int
	// lookupRate and deltaRate are the open-loop request rates (per second)
	// of GET /placement and POST /deltas.
	lookupRate, deltaRate float64
	setupReps             int           // daemon starts per run
	calibration           time.Duration // idle-daemon lookup phase
}

// solveInterval is the daemon's solve cadence (-interval). At the
// workload's load the solver loop is about a quarter busy.
const solveInterval = 200 * time.Millisecond

func overlaydSize(quick bool) overlaydShape {
	if quick {
		return overlaydShape{regions: 3, isps: 3, perRegion: 40, lookupRate: 200, deltaRate: 25,
			setupReps: 1, calibration: 200 * time.Millisecond}
	}
	return overlaydShape{regions: 6, isps: 5, perRegion: 1667, lookupRate: 1000, deltaRate: 25,
		setupReps: 3, calibration: time.Second}
}

// maxLateness bounds the load generator's own scheduling error: the time
// between when a request could have been sent (its due time, or the previous
// response on its connection if that came later) and when it was. A run
// whose generator ran later than this is rejected: its latencies would
// describe the benchmark process, not the daemon. (On a 2-core machine a
// healthy run's worst lateness is 5-20 ms: the generator shares the cores
// with the daemon's solves.)
const maxLateness = 100 * time.Millisecond

// blockedIngest is the POST /deltas service time above which an ingest
// counts as having waited behind a solve (an unblocked ingest takes well
// under a millisecond; a solve holds the daemon's mutex for tens).
const blockedIngest = 2 * time.Millisecond

// footprintSeed draws the daemon's footprint. It is fixed, and the run's
// seed drives who is joined and all the traffic: at this size the footprint
// alone moves met demand between about 0.65 and 0.84, cost by 8 % and the
// cold start between 2 and 10 s, which would drown the serving path this
// workload measures. The batch workloads vary their instances with the seed.
const footprintSeed = 1

// overlaydInstance generates the daemon's instance: a clustered footprint
// with colors stripped, about a fifth of the viewers (drawn from the seed)
// initially not joined.
func overlaydInstance(seed uint64, sh overlaydShape) *netmodel.Instance {
	in := gen.Clustered(gen.DefaultClustered(2, sh.regions, sh.isps, sh.perRegion), footprintSeed)
	in.Color, in.NumColors = nil, 0
	rng := stats.NewRNG(seed ^ 0xd43c0)
	for j := range in.Threshold {
		if !rng.Bernoulli(0.8) {
			in.Threshold[j] = 0
		}
	}
	return in
}

// deltaGen generates the POST /deltas stream from the seed and keeps the
// benchmark's own replay of the instance: every acknowledged delta is applied
// to it, in acknowledgement order.
type deltaGen struct {
	rng       *stats.RNG
	replay    *netmodel.Instance
	threshold float64
	n         int
}

// next flips three distinct viewers between joined and left; every fifth
// delta also reprices one reflector→viewer arc.
func (g *deltaGen) next() netmodel.Delta {
	g.n++
	d := netmodel.Delta{Note: fmt.Sprintf("benchmark delta %d", g.n)}
	for len(d.SetThreshold) < 3 {
		j := g.rng.Intn(g.replay.NumSinks)
		dup := false
		for _, e := range d.SetThreshold {
			dup = dup || e.Sink == j
		}
		if dup {
			continue
		}
		v := g.threshold
		if g.replay.Threshold[j] > 0 {
			v = 0
		}
		d.SetThreshold = append(d.SetThreshold, netmodel.SinkValue{Sink: j, Value: v})
	}
	if g.n%5 == 0 {
		d.ScaleRefSinkCost = append(d.ScaleRefSinkCost, netmodel.ArcValue{
			A: g.rng.Intn(g.replay.NumReflectors), B: g.rng.Intn(g.replay.NumSinks), Value: g.rng.Range(0.9, 1.1)})
	}
	return d
}

// sample is one request of the load generator.
type sample struct {
	due, sent, done time.Time
	// own is the generator's own lateness: sent minus the later of the due
	// time and the previous response on the same connection.
	own   time.Duration
	ok    bool
	epoch int
	// extra marks requests due after the window closed (sent only to see
	// the last deltas' epochs published).
	extra bool
}

// latency is the request's latency from its due time — so a stall counts
// against every request queued behind it — less the generator's own
// lateness.
func (s sample) latency() time.Duration { return s.done.Sub(s.due) - s.own }

// openLoop sends requests on one connection on a fixed schedule that does
// not slow when the daemon does: request i is due at start + i/rate. It runs
// until end, and past it (marking samples extra) while more says so, up to
// a five-second grace.
func openLoop(ctx context.Context, start, end time.Time, rate float64, more func() bool,
	do func() (ok bool, epoch int, done time.Time)) []sample {
	period := time.Duration(float64(time.Second) / rate)
	var out []sample
	prev := start
	timer := time.NewTimer(time.Hour)
	defer timer.Stop()
	for i := 0; ; i++ {
		due := start.Add(time.Duration(i) * period)
		extra := !due.Before(end)
		if extra && (more == nil || !more() || due.Sub(end) > 5*time.Second) {
			return out
		}
		if w := time.Until(due); w > 0 {
			timer.Reset(w)
			select {
			case <-timer.C:
			case <-ctx.Done():
				return out
			}
		}
		sent := time.Now()
		ok, epoch, done := do()
		from := due
		if prev.After(due) {
			from = prev
		}
		out = append(out, sample{due: due, sent: sent, done: done, own: sent.Sub(from), ok: ok, epoch: epoch, extra: extra})
		prev = done
	}
}

// client talks to one daemon over one keep-alive connection per request
// type, so a slow request type never queues behind another.
type client struct {
	base                    string
	lookups, deltas, status *http.Client
	reflectors, viewers     int
}

func newClient(addr string, in *netmodel.Instance) *client {
	conn := func() *http.Client {
		// Some solves hold the daemon's lock for tens of seconds; a request
		// must outlast them, or the replay loses a delta the daemon applied.
		return &http.Client{Timeout: time.Minute, Transport: &http.Transport{
			MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}}
	}
	return &client{base: "http://" + addr, lookups: conn(), deltas: conn(), status: conn(),
		reflectors: in.NumReflectors, viewers: in.NumViewers()}
}

func (c *client) close() {
	for _, h := range []*http.Client{c.lookups, c.deltas, c.status} {
		h.CloseIdleConnections()
	}
}

// call performs one request and, when the status is the wanted one, decodes
// the JSON answer into v. It returns when the answer had fully arrived, so
// decoding stays out of the measured latency.
func call(h *http.Client, method, url string, body []byte, want int, v any) (time.Time, error) {
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		return time.Now(), err
	}
	resp, err := h.Do(req)
	if err != nil {
		return time.Now(), err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	done := time.Now()
	if err != nil {
		return done, err
	}
	if resp.StatusCode != want {
		return done, fmt.Errorf("%s %s: status %d: %s", method, url, resp.StatusCode, bytes.TrimSpace(data))
	}
	if v == nil {
		return done, nil
	}
	return done, json.Unmarshal(data, v)
}

// checkPlacement validates one placement answer: the right viewer, reflector
// ids in range, an epoch that never decreases on the connection.
func (c *client) checkPlacement(p *daemon.PlacementResponse, sink, lastEpoch int) error {
	if p.Sink != sink || len(p.Streams) == 0 {
		return fmt.Errorf("placement for viewer %d answered viewer %d with %d streams", sink, p.Sink, len(p.Streams))
	}
	if p.Epoch < lastEpoch {
		return fmt.Errorf("placement epoch went back from %d to %d", lastEpoch, p.Epoch)
	}
	for _, s := range p.Streams {
		for _, r := range s.Reflectors {
			if r < 0 || r >= c.reflectors {
				return fmt.Errorf("placement for viewer %d names reflector %d of %d", sink, r, c.reflectors)
			}
		}
	}
	return nil
}

// window is one load window's record.
type window struct {
	lookups, ingests []sample
	// ackEpoch[i] is the epoch ingests[i]'s 202 named.
	ackEpoch []int
	// solves holds /status's last-solve summary for each epoch the status
	// poller saw published during the window.
	solves     []daemon.EpochInfo
	activeSeen int // lookups of joined viewers
	metSeen    int // ... whose placement met its threshold
	seconds    float64

	mu       sync.Mutex // guards problems and failed, which every sender writes
	problems []string
	failed   int
}

// problem records a failed check, keeping the first few messages; failed
// says whether it was a request that failed.
func (w *window) problem(failed bool, format string, args ...any) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if failed {
		w.failed++
	}
	if len(w.problems) < 5 {
		w.problems = append(w.problems, fmt.Sprintf(format, args...))
	} else if len(w.problems) == 5 {
		w.problems = append(w.problems, "(further failures not listed)")
	}
}

// runWindow drives one load window: lookups and deltas open-loop on their
// own connections, and a status poller that reads /status once per newly
// published epoch. With a tracer, every request also gets a span named after
// its endpoint.
func (c *client) runWindow(ctx context.Context, lookupRate, deltaRate, seconds float64, g *deltaGen, tr *obs.Tracer) *window {
	w := &window{seconds: seconds}
	start := time.Now().Add(10 * time.Millisecond)
	end := start.Add(time.Duration(seconds * float64(time.Second)))
	var observed atomic.Int64 // newest epoch a lookup has seen
	var target atomic.Int64   // newest acknowledged epoch once ingest is over
	observed.Store(-1)
	target.Store(-1)
	if deltaRate > 0 {
		target.Store(math.MaxInt64)
	}
	newEpoch := make(chan struct{}, 1)
	fail := func(format string, args ...any) { w.problem(true, format, args...) }
	guard := func(wg *sync.WaitGroup, f func()) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					fail("load generator panicked: %v", r)
				}
			}()
			f()
		}()
	}

	var senders, poller sync.WaitGroup
	rng := stats.NewRNG(g.rng.Uint64()) // the lookups' viewers; g.rng is the delta sender's
	guard(&senders, func() {
		last := -1
		w.lookups = openLoop(ctx, start, end, lookupRate,
			func() bool { return observed.Load() < target.Load() },
			func() (bool, int, time.Time) {
				sink := rng.Intn(c.viewers)
				sp := tr.Start(nil, "GET /placement")
				var p daemon.PlacementResponse
				done, err := call(c.lookups, http.MethodGet, c.base+"/placement?sink="+strconv.Itoa(sink), nil, http.StatusOK, &p)
				sp.End()
				if err == nil {
					err = c.checkPlacement(&p, sink, last)
				}
				if err != nil {
					fail("%v", err)
					return false, last, done
				}
				if p.Epoch > last {
					last = p.Epoch
					observed.Store(int64(last))
					select {
					case newEpoch <- struct{}{}:
					default:
					}
				}
				if st := p.Streams[0]; st.Active {
					w.activeSeen++
					if st.Met {
						w.metSeen++
					}
				}
				return true, p.Epoch, done
			})
	})
	guard(&senders, func() {
		if deltaRate == 0 {
			return
		}
		maxAck := -1
		w.ingests = openLoop(ctx, start, end, deltaRate, nil, func() (bool, int, time.Time) {
			d := g.next()
			body, err := json.Marshal(d)
			if err != nil {
				fail("encoding a delta: %v", err)
				return false, -1, time.Now()
			}
			sp := tr.Start(nil, "POST /deltas")
			var ack daemon.IngestResponse
			done, err := call(c.deltas, http.MethodPost, c.base+"/deltas", body, http.StatusAccepted, &ack)
			sp.End()
			if err != nil {
				fail("%v", err)
				return false, -1, done
			}
			if _, err := d.Apply(g.replay); err != nil {
				fail("replaying an acknowledged delta: %v", err)
			}
			maxAck = max(maxAck, ack.Epoch)
			w.ackEpoch = append(w.ackEpoch, ack.Epoch)
			return true, ack.Epoch, done
		})
		target.Store(int64(maxAck))
	})
	guard(&poller, func() {
		for range newEpoch {
			sp := tr.Start(nil, "GET /status")
			var st daemon.Status
			_, err := call(c.status, http.MethodGet, c.base+"/status", nil, http.StatusOK, &st)
			sp.End()
			if err != nil {
				fail("%v", err)
				continue
			}
			if !st.Last.AuditOK {
				w.problem(false, "epoch %d failed the audit", st.Last.Epoch)
			}
			if n := len(w.solves); n == 0 || st.Last.Epoch > w.solves[n-1].Epoch {
				w.solves = append(w.solves, st.Last)
			}
		}
	})
	senders.Wait()
	close(newEpoch)
	poller.Wait()
	return w
}

// solveLags pairs every acknowledged delta with the first lookup answered
// after the acknowledgement from an epoch at or past the one the 202 named.
func (w *window) solveLags() []float64 {
	var lags []float64
	acked := 0
	for _, s := range w.ingests {
		if !s.ok {
			continue
		}
		e := w.ackEpoch[acked]
		acked++
		i := sort.Search(len(w.lookups), func(i int) bool {
			l := w.lookups[i]
			return !l.done.Before(s.done) && l.epoch >= e
		})
		if i < len(w.lookups) {
			lags = append(lags, float64(w.lookups[i].done.Sub(s.done).Nanoseconds())/1e6)
		}
	}
	return lags
}

// lateness is the generator's largest own lateness across the window.
func (w *window) lateness() time.Duration {
	var worst time.Duration
	for _, ss := range [][]sample{w.lookups, w.ingests} {
		for _, s := range ss {
			worst = max(worst, s.own)
		}
	}
	return worst
}

// latencies lists the window's successful, in-window latencies in unit.
func latencies(ss []sample, unit time.Duration) []float64 {
	out := make([]float64, 0, len(ss))
	for _, s := range ss {
		if s.ok && !s.extra {
			out = append(out, float64(s.latency())/float64(unit))
		}
	}
	return out
}

// runOverlayd measures the serving workload. It writes the generated
// instance to a temporary directory, starts overlayd setupReps times (the
// last start serves the load), calibrates the load generator against the
// idle daemon, drives the load window(s), and finally audits the served
// design against the benchmark's own replay of every acknowledged delta.
func runOverlayd(ctx context.Context, rc runConfig) (*outcome, error) {
	if rc.overlayd == "" {
		return nil, fmt.Errorf("-overlayd is required")
	}
	sh := overlaydSize(rc.quick)
	if err := os.MkdirAll(rc.stateDir, 0o755); err != nil {
		return nil, err
	}
	tmp, err := os.MkdirTemp(rc.stateDir, "overlayd-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(tmp)
	in := overlaydInstance(rc.seed, sh)
	instPath := filepath.Join(tmp, "instance.json")
	if err := in.SaveFile(instPath); err != nil {
		return nil, fmt.Errorf("writing the instance: %w", err)
	}
	args := []string{"-instance", instPath, "-aggregate", "-interval", solveInterval.String()}

	// Set-up runs from the child's start until it has published its first
	// warm epoch: /healthz answers once the cold epoch 0 is provisioned, but
	// the first sticky re-solve after it can hold the daemon's lock for
	// seconds, and a load window must not start inside it.
	var setups, healthy []float64
	var d *child
	for i := 0; i < sh.setupReps; i++ {
		if d != nil {
			d.stop()
		}
		t0 := time.Now()
		d, err = startDaemon(ctx, rc.overlayd, args, 2*time.Minute)
		if err != nil {
			return nil, err
		}
		healthy = append(healthy, time.Since(t0).Seconds())
		if err := waitEpoch(ctx, newClient(d.addr, in), 1, 2*time.Minute); err != nil {
			d.stop()
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer d.stop()
	out := &outcome{metrics: map[string]float64{}}
	out.note("start to /healthz (median)", median(healthy), "s")
	return measureDaemon(ctx, rc, sh, d, in, setups, out)
}

// waitEpoch polls GET /placement until the published view is at least the
// given epoch.
func waitEpoch(ctx context.Context, c *client, epoch int, deadline time.Duration) error {
	defer c.close()
	stop := time.Now().Add(deadline)
	for {
		var p daemon.PlacementResponse
		if _, err := call(c.lookups, http.MethodGet, c.base+"/placement?sink=0", nil, http.StatusOK, &p); err != nil {
			return err
		}
		if p.Epoch >= epoch {
			return nil
		}
		if time.Now().After(stop) {
			return fmt.Errorf("overlayd did not publish epoch %d within %v", epoch, deadline)
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(5 * time.Millisecond):
		}
	}
}

func measureDaemon(ctx context.Context, rc runConfig, sh overlaydShape, d *child, in *netmodel.Instance, setups []float64, out *outcome) (*outcome, error) {
	c := newClient(d.addr, in)
	defer c.close()
	g := &deltaGen{rng: stats.NewRNG(rc.seed ^ 0xde17a), replay: in.Clone(),
		threshold: gen.DefaultClustered(2, sh.regions, sh.isps, sh.perRegion).Threshold}

	// Calibration: lookups alone against the idle daemon show the
	// generator's own scheduling error next to the daemon's service time.
	cal := c.runWindow(ctx, sh.lookupRate, 0, sh.calibration.Seconds(), g, nil)
	if len(cal.problems) > 0 {
		return nil, fmt.Errorf("calibration: %s", strings.Join(cal.problems, "; "))
	}
	var fromSend, own []float64
	for _, s := range cal.lookups {
		fromSend = append(fromSend, float64(s.done.Sub(s.sent).Microseconds()))
		own = append(own, float64(s.own.Microseconds()))
	}
	out.note("calibration: idle lookup p50 from send", median(fromSend), "us")
	out.note("calibration: idle lookup p50 from due", median(latencies(cal.lookups, time.Microsecond)), "us")
	out.note("calibration: generator lateness p50", median(own), "us")
	out.note("calibration: generator lateness max", float64(cal.lateness().Microseconds()), "us")

	var plain *window
	if rc.traced {
		plain = c.runWindow(ctx, sh.lookupRate, sh.deltaRate, rc.seconds, g, nil)
	}
	var before, after map[string]float64
	var stBefore, stAfter daemon.Status
	var buf bytes.Buffer
	var tr *obs.Tracer
	if rc.traced {
		tr = obs.NewTracer(&buf)
		var err error
		if before, err = scrape(c.status, c.base+"/metrics"); err != nil {
			return nil, err
		}
		if _, err := call(c.status, http.MethodGet, c.base+"/status", nil, http.StatusOK, &stBefore); err != nil {
			return nil, err
		}
	}
	w := c.runWindow(ctx, sh.lookupRate, sh.deltaRate, rc.seconds, g, tr)
	if ctx.Err() != nil {
		return nil, ctx.Err()
	}
	if rc.traced {
		var err error
		if after, err = scrape(c.status, c.base+"/metrics"); err != nil {
			return nil, err
		}
		if _, err := call(c.status, http.MethodGet, c.base+"/status", nil, http.StatusOK, &stAfter); err != nil {
			return nil, err
		}
	}
	peak := peakRSSMB(strconv.Itoa(d.cmd.Process.Pid))
	if err := c.checkFinalDesign(g.replay); err != nil {
		out.problems = append(out.problems, err.Error())
	}

	for _, win := range []*window{plain, w} {
		if win == nil {
			continue
		}
		if late := win.lateness(); late > maxLateness {
			return nil, fmt.Errorf("run rejected: the load generator ran %v late (bound %v)", late, maxLateness)
		}
		out.attempted += countDue(win.lookups) + len(win.ingests)
		out.failed += win.failed
		out.problems = append(out.problems, win.problems...)
	}
	out.note("generator lateness max", float64(w.lateness().Microseconds()), "us")

	lags := w.solveLags()
	lookups := latencies(w.lookups, time.Microsecond)
	ingests := latencies(w.ingests, time.Millisecond)
	m := out.metrics
	if rc.traced {
		layersFromDaemon(out, w, before, after, stBefore, stAfter)
		m["trace.overhead"] = ratio(median(lags), median(plain.solveLags()))
		out.trace = buf.Bytes()
		return out, tr.Err()
	}
	var cost, churn []float64
	for _, s := range w.solves {
		cost = append(cost, s.TrueCost)
		churn = append(churn, s.ViewerChurn)
	}
	lagTail, lagPct := tail(lags)
	m["setup_s"] = median(setups)
	m["update_p50_ms"] = median(lags)
	m["update_tail_ms"] = lagTail
	m["cost"] = mean(cost)
	m["viewer_churn"] = mean(churn)
	m["met_frac"] = ratio(float64(w.metSeen), float64(w.activeSeen))
	m["peak_rss_mb"] = peak
	lt, lpct := tail(lookups)
	it, ipct := tail(ingests)
	out.note("setup samples", float64(len(setups)), "count")
	out.note("lookups", float64(len(lookups)), "count")
	out.note("ingests", float64(len(ingests)), "count")
	out.note("solves seen", float64(len(w.solves)), "count")
	out.note("lookup_p50_us", median(lookups), "us")
	out.note(fmt.Sprintf("lookup_tail_us (p%.2f)", lpct), lt, "us")
	out.note("ingest_p50_ms", median(ingests), "ms")
	out.note(fmt.Sprintf("ingest_tail_ms (p%.2f)", ipct), it, "ms")
	out.note("solve_lag_p50_ms", median(lags), "ms")
	out.note(fmt.Sprintf("solve_lag_tail_ms (p%.2f)", lagPct), lagTail, "ms")
	out.note("failed_frac", ratio(float64(out.failed), float64(out.attempted)), "ratio")
	return out, nil
}

func countDue(ss []sample) int {
	n := 0
	for _, s := range ss {
		if !s.extra {
			n++
		}
	}
	return n
}

// checkFinalDesign waits until the daemon has published an epoch that
// consumed every acknowledged delta, then audits GET /design against the
// benchmark's replay: the structure must hold, the paper's guarantee must be
// met, and the active sinks and cost must match what /status reports for the
// same epoch (so the replay and the daemon agree on the instance).
func (c *client) checkFinalDesign(replay *netmodel.Instance) error {
	var before, after daemon.Status
	if _, err := call(c.status, http.MethodGet, c.base+"/status", nil, http.StatusOK, &before); err != nil {
		return err
	}
	for settle := time.Now().Add(2 * time.Second); before.PendingDeltas > 0 && time.Now().Before(settle); {
		time.Sleep(20 * time.Millisecond)
		if _, err := call(c.status, http.MethodGet, c.base+"/status", nil, http.StatusOK, &before); err != nil {
			return err
		}
	}
	if before.PendingDeltas > 0 {
		return fmt.Errorf("overlayd still has %d deltas pending two seconds after the load stopped", before.PendingDeltas)
	}
	var design netmodel.Design
	if _, err := call(c.status, http.MethodGet, c.base+"/design", nil, http.StatusOK, &design); err != nil {
		return err
	}
	if _, err := call(c.status, http.MethodGet, c.base+"/status", nil, http.StatusOK, &after); err != nil {
		return err
	}
	a := netmodel.AuditDesign(replay, &design)
	switch {
	case !a.StructureOK:
		return fmt.Errorf("final design fails the structure audit against the replayed instance")
	case a.WeightFactor < 0.25-1e-9:
		return fmt.Errorf("final design misses the weight guarantee on the replayed instance (%.3f)", a.WeightFactor)
	case after.Last.Epoch == before.Last.Epoch && a.Sinks != after.Last.ActiveSinks:
		return fmt.Errorf("replay has %d active sinks, overlayd %d", a.Sinks, after.Last.ActiveSinks)
	case after.Last.Epoch == before.Last.Epoch && math.Abs(a.Cost-after.Last.TrueCost) > 1e-9*math.Max(1, a.Cost):
		return fmt.Errorf("replayed design cost %.6f, overlayd reports %.6f", a.Cost, after.Last.TrueCost)
	}
	return nil
}

// scrape reads /metrics into a map from series (name plus labels) to value.
func scrape(h *http.Client, url string) (map[string]float64, error) {
	resp, err := h.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: status %d", url, resp.StatusCode)
	}
	out := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
			out[line[:i]] = v
		}
	}
	return out, sc.Err()
}

// layersFromDaemon fills the per-layer metrics of the traced window from the
// /metrics and /status readings around it and the window's own samples.
// Stage shares are of the window's solve time: the solves counted by /status
// times the mean wall of the solves the poller saw.
func layersFromDaemon(out *outcome, w *window, before, after map[string]float64, stBefore, stAfter daemon.Status) {
	m := out.metrics
	delta := func(series string) float64 { return after[series] - before[series] }
	stageMS := func(stage string) float64 {
		return 1000 * delta(fmt.Sprintf(`%s_sum{stage="%s"}`, obs.MStageWall, stage))
	}
	solves := float64(stAfter.Totals.Solves - stBefore.Totals.Solves)
	var wall []float64
	for _, s := range w.solves {
		wall = append(wall, float64(s.WallNS)/1e6)
	}
	solveMS := mean(wall) * solves
	inStages := 0.0
	for stage, name := range stageLayers {
		m[name] = ratio(stageMS(stage), solveMS)
		inStages += m[name]
	}
	for name, family := range counterLayers {
		m[name] = delta(family)
	}
	m["core.step_share"] = max(0, 1-inStages)
	m["agg.units"] = after[obs.MAggUnits]
	m["daemon.solves"] = solves
	m["daemon.edits_per_solve"] = ratio(float64(stAfter.Totals.Edits-stBefore.Totals.Edits), solves)
	m["daemon.busy_frac"] = solveMS / 1000 / w.seconds
	blocked, n := 0, 0
	for _, s := range w.ingests {
		if s.ok && !s.extra {
			n++
			if s.done.Sub(s.sent) > blockedIngest {
				blocked++
			}
		}
	}
	m["daemon.ingest_blocked_frac"] = ratio(float64(blocked), float64(n))
	derive(m, stageMS("lp-solve"), delta(fmt.Sprintf(`%s{stage="lp-solve"}`, obs.MStageRuns)))
	out.note("daemon.solve_ms (mean over the solves seen)", mean(wall), "ms")
}
