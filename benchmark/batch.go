package main

import (
	"bytes"
	"fmt"
	"hash"
	"hash/fnv"
	"math"
	"time"

	"repro/internal/agg"
	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/live"
	"repro/internal/netmodel"
	"repro/internal/obs"
	"repro/internal/stats"
)

// timeline is one live.Run of a scenario under the warm+sticky policy,
// observed from outside through OnEpoch: the set-up (inputs built and the
// cold epoch 0 provisioned) and the wall time between consecutive epochs.
type timeline struct {
	setup   time.Duration
	ticks   []time.Time
	reports []live.EpochReport
	// counts holds the steady-state (post epoch 0) deltas of the canonical
	// counters and aggUnits the final aggregate count; traced runs only.
	counts   map[string]float64
	aggUnits float64
}

// runTimeline builds a scenario and replays it. With a tracer, the run is
// observed through live.Config.Obs (a metrics registry plus the tracer), and
// the benchmark adds an "interval" span per epoch covering the OnEpoch
// interval the epoch timings come from.
func runTimeline(build func() (*live.Scenario, error), solver core.Options, tr *obs.Tracer) (*timeline, error) {
	start := time.Now()
	sc, err := build()
	if err != nil {
		return nil, err
	}
	tl := &timeline{}
	cfg := live.Config{Solver: solver, Policy: live.WarmStickyPolicy()}
	var reg *obs.Registry
	var base map[string]float64
	var interval *obs.Span
	if tr != nil {
		reg = obs.NewRegistry()
		cfg.Obs = &obs.Observer{Reg: reg, Tr: tr}
	}
	cfg.OnEpoch = func(er live.EpochReport) {
		now := time.Now()
		interval.End()
		if len(tl.ticks) == 0 {
			tl.setup = now.Sub(start)
			base = readCounters(reg)
		}
		tl.ticks = append(tl.ticks, now)
		tl.reports = append(tl.reports, er)
		interval = tr.Start(nil, "interval", obs.A("scenario", sc.Name), obs.A("epoch", er.Epoch+1))
	}
	if _, err := live.Run(sc, cfg); err != nil {
		return nil, fmt.Errorf("%s: %w", sc.Name, err)
	}
	if reg != nil {
		tl.counts = readCounters(reg)
		for k, v := range base {
			tl.counts[k] -= v
		}
		tl.aggUnits = reg.Gauge(obs.MAggUnits).Value()
	}
	return tl, nil
}

func readCounters(reg *obs.Registry) map[string]float64 {
	if reg == nil {
		return nil
	}
	out := make(map[string]float64, len(counterLayers))
	for name, family := range counterLayers {
		out[name] = reg.Counter(family).Value()
	}
	return out
}

// pool accumulates the timelines of a run. Epoch statistics cover the
// steady state, epochs 1..N of every timeline.
type pool struct {
	setups      []float64     // one per pass, seconds
	wall        time.Duration // epochs 1..N, summed over timelines
	intervalsMS []float64
	epochs      int
	costSum     float64
	churnSum    float64
	met, active float64
	retries     int
	failed      []string
	// digest covers every epoch's deterministic outputs, epoch 0 included.
	digest      hash.Hash64
	counts      map[string]float64
	aggUnits    float64
	bookkeeping time.Duration // Σ (interval − EpochReport.WallNS)
}

func newPool() *pool { return &pool{digest: fnv.New64a(), counts: map[string]float64{}} }

func (p *pool) add(tl *timeline) {
	for e, er := range tl.reports {
		// The deterministic outputs: pivots, cost, churn and the audit.
		fmt.Fprintf(p.digest, "%d %d %x %x %x %x %d %d %t %d|", er.Epoch, er.Pivots,
			math.Float64bits(er.TrueCost), math.Float64bits(er.ViewerChurn),
			math.Float64bits(er.WeightFactor), math.Float64bits(er.FanoutFactor),
			er.MetDemand, er.Retries, er.AuditOK, er.ArcChurn)
		if !er.AuditOK {
			p.failed = append(p.failed, fmt.Sprintf("epoch %d failed the audit (weight %.3f, fanout %.3f)",
				er.Epoch, er.WeightFactor, er.FanoutFactor))
		}
		if e == 0 {
			continue
		}
		iv := tl.ticks[e].Sub(tl.ticks[e-1])
		p.intervalsMS = append(p.intervalsMS, float64(iv.Nanoseconds())/1e6)
		p.bookkeeping += iv - time.Duration(er.WallNS)
		p.epochs++
		p.costSum += er.TrueCost
		p.churnSum += er.ViewerChurn
		p.met += float64(er.MetDemand)
		p.active += float64(er.ActiveSinks)
		p.retries += er.Retries
	}
	if n := len(tl.ticks); n > 1 {
		p.wall += tl.ticks[n-1].Sub(tl.ticks[0])
	}
	for k, v := range tl.counts {
		p.counts[k] += v
	}
	p.aggUnits = max(p.aggUnits, tl.aggUnits)
}

// batchWorkload is a batch workload: one pass from a pass seed (its
// timelines go into the pool; it returns the pass's set-up time), how long
// a pass nominally takes, which sets how many passes a run makes, and how to
// take extra set-up samples.
type batchWorkload struct {
	pass     func(seed uint64, tr *obs.Tracer, p *pool) (time.Duration, error)
	passTime float64 // seconds on a 2-core machine
	// setupOnly provisions epoch 0 alone, for setupReps extra set-up
	// samples; it returns the set-up time and epoch 0's output digest.
	setupOnly func(seed uint64) (time.Duration, uint64, error)
	setupReps int
}

// passSeed derives the seed of a run's i-th pass. Every pass draws fresh
// instances: epoch cost varies up to twofold between instances, so a run
// averages over several.
func passSeed(seed uint64, i int) uint64 {
	return stats.NewRNG(seed*0x9e3779b97f4a7c15 + uint64(i)).Uint64()
}

// measure runs a run's passes into one pool. The pass count follows from
// the run length and the nominal pass time, not from how fast passes go, so
// every build runs the same inputs for the same arguments.
func (w batchWorkload) measure(rc runConfig, tr *obs.Tracer) (*pool, error) {
	p := newPool()
	for i := 0; i < max(1, int(math.Round(rc.seconds/w.passTime))); i++ {
		setup, err := w.pass(passSeed(rc.seed, i), tr, p)
		if err != nil {
			return nil, err
		}
		p.setups = append(p.setups, setup.Seconds())
	}
	return p, nil
}

// runBatch measures a batch workload. Untraced, it reports the end-to-end
// metrics over the pooled epochs. Traced, it runs the same passes untraced
// and then traced, checks that tracing changed no deterministic output, and
// reports the per-layer metrics of the traced passes.
func runBatch(rc runConfig, w batchWorkload) (*outcome, error) {
	out := &outcome{metrics: map[string]float64{}}
	if rc.traced {
		return runBatchTraced(rc, w, out)
	}
	var setups []float64
	var setupSum uint64
	for i := 0; i < w.setupReps; i++ {
		d, sum, err := w.setupOnly(passSeed(rc.seed, 0))
		if err != nil {
			return nil, err
		}
		if i > 0 && sum != setupSum {
			out.problems = append(out.problems, "repeated set-ups provisioned epoch 0 differently")
		}
		setupSum = sum
		setups = append(setups, d.Seconds())
	}
	p, err := w.measure(rc, nil)
	if err != nil {
		return nil, err
	}
	setups = append(setups, p.setups...)
	out.attempted, out.failed = p.epochs, len(p.failed)
	out.problems = append(out.problems, p.failed...)
	out.digest = p.digest.Sum64()
	tailV, pct := tail(p.intervalsMS)
	m := out.metrics
	m["setup_s"] = median(setups)
	m["update_p50_ms"] = median(p.intervalsMS)
	m["update_tail_ms"] = tailV
	m["cost"] = p.costSum / float64(p.epochs)
	m["viewer_churn"] = p.churnSum / float64(p.epochs)
	m["met_frac"] = ratio(p.met, p.active)
	out.note("passes", float64(len(p.setups)), "count")
	out.note("setup samples", float64(len(setups)), "count")
	out.note("epochs measured", float64(len(p.intervalsMS)), "count")
	out.note("timeline_s (mean per pass)", p.wall.Seconds()/float64(len(p.setups)), "s")
	out.note("epoch_p50_ms", m["update_p50_ms"], "ms")
	out.note(fmt.Sprintf("epoch_tail_ms (p%.2f)", pct), tailV, "ms")
	out.note("failed_frac", ratio(float64(out.failed), float64(out.attempted)), "ratio")
	return out, nil
}

func runBatchTraced(rc runConfig, w batchWorkload, out *outcome) (*outcome, error) {
	plain, err := w.measure(rc, nil)
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	tr := obs.NewTracer(&buf)
	traced, err := w.measure(rc, tr)
	if err != nil {
		return nil, err
	}
	if err := tr.Err(); err != nil {
		return nil, fmt.Errorf("trace: %w", err)
	}
	if traced.digest.Sum64() != plain.digest.Sum64() {
		out.problems = append(out.problems, "tracing changed the deterministic outputs")
	}
	out.attempted = plain.epochs + traced.epochs
	out.failed = len(plain.failed) + len(traced.failed)
	out.problems = append(out.problems, plain.failed...)
	out.problems = append(out.problems, traced.failed...)
	out.digest = plain.digest.Sum64()
	recs, err := obs.ReadTrace(bytes.NewReader(buf.Bytes()))
	if err != nil {
		return nil, err
	}
	out.trace = buf.Bytes()

	st := attribute(recs)
	epochMS := mean(traced.intervalsMS) * float64(traced.epochs) // Σ steady-state epoch time
	m := out.metrics
	for stage, name := range stageLayers {
		m[name] = ratio(st.wall[stage]/1e6, epochMS)
	}
	for name, v := range traced.counts {
		m[name] = v
	}
	m["live.bookkeeping_share"] = ratio(float64(traced.bookkeeping.Nanoseconds())/1e6, epochMS)
	m["core.step_share"] = ratio(st.self["epoch"]/1e6, epochMS)
	m["core.retries"] = float64(traced.retries)
	m["shard.skew"] = st.skew()
	m["agg.units"] = traced.aggUnits
	m["trace.overhead"] = ratio(traced.wall.Seconds(), plain.wall.Seconds())
	derive(m, st.wall["lp-solve"]/1e6, float64(st.runs["lp-solve"]))
	out.note("untraced timeline_s (all passes)", plain.wall.Seconds(), "s")
	out.note("traced timeline_s (all passes)", traced.wall.Seconds(), "s")
	out.note("traced steady-state epochs", float64(traced.epochs), "count")
	out.note("mean traced epoch interval", epochMS/float64(traced.epochs), "ms")
	return out, nil
}

// library replays the seven live scenarios with engine defaults.
func library(rc runConfig) batchWorkload {
	epochs := 200
	if rc.quick {
		epochs = 12
	}
	return batchWorkload{
		passTime: 2.5,
		pass: func(seed uint64, tr *obs.Tracer, p *pool) (time.Duration, error) {
			var setup time.Duration
			for k, name := range live.Names() {
				// Five scenarios share a topology generator, so each gets its
				// own seed: a pass then covers seven independent instances.
				tl, err := runTimeline(func() (*live.Scenario, error) {
					return live.Make(name, seed+uint64(k), epochs)
				}, core.Options{}, tr)
				if err != nil {
					return 0, err
				}
				p.add(tl)
				setup += tl.setup
			}
			return setup, nil
		},
	}
}

// fleetShape sizes the fleet footprint: regions × ISPs reflectors (one per
// colo), viewers per region, and epochs per timeline.
type fleetShape struct{ regions, isps, perRegion, epochs int }

func fleetSize(quick bool) fleetShape {
	if quick {
		return fleetShape{regions: 4, isps: 3, perRegion: 60, epochs: 8}
	}
	return fleetShape{regions: 8, isps: 5, perRegion: 1250, epochs: 12}
}

// fleetScenario builds the fleet timeline on a clustered footprint with
// colors stripped: every region's audience swells and shrinks on a shared
// period (phase-shifted per region), a quarter of the reflectors reprice
// every epoch, and one whole ISP fails for a window and recovers.
func fleetScenario(seed uint64, fs fleetShape, epochs int) *live.Scenario {
	cc := gen.DefaultClustered(2, fs.regions, fs.isps, fs.perRegion)
	in, l := gen.ClusteredWithLayout(cc, seed)
	in.Color, in.NumColors = nil, 0
	rng := stats.NewRNG(seed ^ 0xf1ee7)
	sc := &live.Scenario{Name: "fleet", Seed: seed, Epochs: epochs, Base: in, SinkRegion: l.SinkRegion}

	byRegion := make([][]int, fs.regions)
	for j, reg := range l.SinkRegion {
		byRegion[reg] = append(byRegion[reg], j)
	}
	for reg, sinks := range byRegion {
		perm := rng.Perm(len(sinks))
		shuffled := make([]int, len(sinks))
		for a, b := range perm {
			shuffled[a] = sinks[b]
		}
		byRegion[reg] = shuffled
	}
	const period = 12.0
	target := func(e, reg int) int {
		phase := float64(e)/period + float64(reg)/float64(fs.regions)
		return int((0.6+0.25*math.Sin(2*math.Pi*phase))*float64(fs.perRegion) + 0.5)
	}
	active := make([]int, fs.regions)
	for reg, sinks := range byRegion {
		active[reg] = target(0, reg)
		for _, j := range sinks[active[reg]:] {
			in.Threshold[j] = 0
		}
	}

	isp := rng.Intn(fs.isps)
	down := max(2, epochs/3)
	up := down + max(2, epochs/8)
	for e := 1; e < epochs; e++ {
		d := netmodel.Delta{Note: fmt.Sprintf("fleet epoch %d", e)}
		for reg, sinks := range byRegion {
			want := target(e, reg)
			for _, j := range sinks[min(active[reg], want):max(active[reg], want)] {
				v := 0.0
				if want > active[reg] {
					v = cc.Threshold
				}
				d.SetThreshold = append(d.SetThreshold, netmodel.SinkValue{Sink: j, Value: v})
			}
			active[reg] = want
		}
		for i := 0; i < in.NumReflectors; i++ {
			if rng.Bernoulli(0.25) {
				d.ScaleReflectorCost = append(d.ScaleReflectorCost,
					netmodel.RefValue{Ref: i, Value: rng.Range(0.95, 1.06)})
			}
		}
		for i, ispOf := range l.RefISP {
			switch {
			case ispOf == isp && e == down:
				d.SetFanout = append(d.SetFanout, netmodel.RefValue{Ref: i, Value: 0})
			case ispOf == isp && e == up:
				d.SetFanout = append(d.SetFanout, netmodel.RefValue{Ref: i, Value: in.Fanout[i]})
			}
		}
		sc.Events = append(sc.Events, live.Event{Epoch: e, Delta: d})
	}
	return sc
}

// fleet runs fleet timelines aggregated and sharded four ways, one per pass.
func fleet(rc runConfig) batchWorkload {
	fs := fleetSize(rc.quick)
	timelineOf := func(seed uint64, epochs int, tr *obs.Tracer) (*timeline, error) {
		return runTimeline(func() (*live.Scenario, error) {
			return fleetScenario(seed, fs, epochs), nil
		}, core.Options{Shards: 4, Aggregate: &agg.Config{}}, tr)
	}
	return batchWorkload{
		passTime:  3,
		setupReps: 2,
		pass: func(seed uint64, tr *obs.Tracer, p *pool) (time.Duration, error) {
			tl, err := timelineOf(seed, fs.epochs, tr)
			if err != nil {
				return 0, err
			}
			p.add(tl)
			return tl.setup, nil
		},
		setupOnly: func(seed uint64) (time.Duration, uint64, error) {
			tl, err := timelineOf(seed, 1, nil)
			if err != nil {
				return 0, 0, err
			}
			p := newPool()
			p.add(tl)
			return tl.setup, p.digest.Sum64(), nil
		},
	}
}
