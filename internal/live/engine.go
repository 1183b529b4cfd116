package live

import (
	"fmt"
	"strconv"
	"time"

	"repro/internal/core"
	"repro/internal/netmodel"
	"repro/internal/obs"
)

// Engine is the epoch step of §1.3's monitoring loop, the one
// implementation both timelines run: Run steps it over a scenario's event
// schedule, and overlayd over its ingest queue. Each epoch the caller
// Applies the re-measured changes, then Step re-solves through the session,
// certifies the design against the paper's audit, tracks the availability
// SLO and feeds the per-epoch metric families. An Engine is not safe for
// concurrent use.
type Engine struct {
	in   *netmodel.Instance
	sess *core.Session
	slo  *SLOTracker
	obs  *obs.Observer

	// The epoch being assembled: notes and atomic edits of the deltas
	// applied since the last Step.
	events []string
	edits  int
}

// NewEngine steps sess over in, which Apply mutates in place. sinkRegion
// maps demand units to topology regions for the per-region SLO breakdown
// (nil disables it); sloWindow and sloTarget parameterize the SLO tracker
// (see Config.SLOWindow). o receives one trace span per epoch, with the
// session's stages nested under it, and the canonical metric families;
// nil runs unobserved.
func NewEngine(in *netmodel.Instance, sess *core.Session, sinkRegion []int, sloWindow int, sloTarget float64, o *obs.Observer) *Engine {
	obs.Canonical(o.Registry())
	return &Engine{
		in: in, sess: sess, obs: o,
		slo: NewSLOTracker(sloWindow, sloTarget, sinkRegion, in.Commodity),
	}
}

// SLO returns the engine's availability tracker.
func (e *Engine) SLO() *SLOTracker { return e.slo }

// Apply applies one delta to the instance and reports its dirty set to the
// session. The delta joins the next Step's report.
func (e *Engine) Apply(d netmodel.Delta) error {
	ds, err := d.Apply(e.in)
	if err != nil {
		return fmt.Errorf("live: epoch %d: %w", e.sess.Steps(), err)
	}
	e.sess.Observe(ds)
	e.events = append(e.events, d.Note)
	e.edits += d.Size()
	return nil
}

// Step re-solves the instance as it stands after the applied deltas and
// reports the epoch. The result carries the deployed design and its audit.
// WallNS times Session.Step alone.
func (e *Engine) Step() (EpochReport, *core.ReoptimizeResult, error) {
	er := EpochReport{Epoch: e.sess.Steps(), Events: e.events, Edits: e.edits}
	e.events, e.edits = nil, 0
	eo, esp := e.obs.StartSpan("epoch",
		obs.A("epoch", er.Epoch), obs.A("events", len(er.Events)), obs.A("edits", er.Edits))
	e.sess.SetObserver(eo)
	start := time.Now()
	res, err := e.sess.Step(e.in)
	esp.End()
	if err != nil {
		return EpochReport{}, nil, fmt.Errorf("live: epoch %d solve: %w", er.Epoch, err)
	}
	er.WallNS = time.Since(start).Nanoseconds()
	// The audit ran on this instance, so its counts are the epoch's.
	er.ActiveSinks = res.Audit.Sinks
	er.ActiveViewers = res.Audit.Viewers
	er.TrueCost = res.Audit.Cost
	er.LPCost = res.LPCost
	// LPPivots equals Frac.Iterations for monolithic epochs and the
	// all-shards/all-rounds pivot sum for sharded ones (Frac is nil on the
	// sharded path).
	er.Pivots = res.LPPivots
	er.Retries = res.Retries
	er.ArcChurn = res.ArcChurn
	er.ReflectorChurn = res.ReflectorChurn
	er.StreamChurn = res.StreamChurn
	er.ViewerChurn = res.ViewerChurn
	for _, b := range res.Design.Build {
		if b {
			er.BuiltReflectors++
		}
	}
	er.WeightFactor = res.Audit.WeightFactor
	er.FanoutFactor = res.Audit.FanoutFactor
	er.MetDemand = res.Audit.MetDemand
	er.AuditOK = res.AuditOK()
	er.StageWallNS = make(map[string]int64, len(res.Stages))
	for _, st := range res.Stages {
		er.StageWallNS[st.Name] = st.Wall.Nanoseconds()
	}
	er.LPPatches = res.LPPatches
	er.LPRebuilds = res.LPRebuilds
	er.Refactorizations = res.LPStats.Refactorizations
	er.FTUpdates = res.LPStats.FTUpdates
	er.WarmFallbacks = res.LPStats.WarmFallbacks
	er.LPWarmOffered = res.LPStats.WarmStarts > 0
	er.LPWarm = er.LPWarmOffered && er.WarmFallbacks == 0
	if si := res.ShardInfo; si != nil {
		er.ExtractionsSkipped = si.ExtractionsSkipped
		// Surface the per-shard model-construction cost under the same
		// stage names the monolithic path reports, so lp-build/lp-patch
		// accounting is uniform across solve paths (summed over
		// concurrent shards).
		if si.LPBuildNS > 0 {
			er.StageWallNS["lp-build"] += si.LPBuildNS
		}
		if si.LPPatchNS > 0 {
			er.StageWallNS["lp-patch"] += si.LPPatchNS
		}
	}

	// Availability SLO: an epoch is available when at least SLOTarget of
	// its active sinks meet their exact reliability threshold; the tracker
	// reports the fraction of available epochs over a trailing window (the
	// alerting-style view of §1.3's monitoring loop), plus the per-region
	// and per-stream breakdowns behind /slo.
	verdict := e.slo.Observe(e.in.Threshold, res.Audit.Met)
	er.SLOOk = verdict.Ok
	er.SLOWindowFrac = verdict.WindowFrac
	er.Regions = verdict.Regions
	er.Streams = verdict.Streams

	recordEpoch(e.obs.Registry(), er)
	return er, res, nil
}

// recordEpoch feeds one epoch's report into the metrics registry under the
// canonical naming scheme. The solver-level counters (pivots, factorization
// events, patches, shard coordination) are NOT fed here — core.Solve already
// records them through the same observer — so every metric has exactly one
// feeding point.
func recordEpoch(r *obs.Registry, er EpochReport) {
	if r == nil {
		return
	}
	r.Counter(obs.MEpochsTotal).Inc()
	r.Gauge(obs.MEpoch).Set(float64(er.Epoch))
	r.Histogram(obs.MEpochWall, nil).Observe(float64(er.WallNS) / 1e9)
	r.Gauge(obs.MEpochCost).Set(er.TrueCost)
	r.Gauge(obs.MActiveSinks).Set(float64(er.ActiveSinks))
	r.Gauge(obs.MActiveViewers).Set(float64(er.ActiveViewers))
	r.Gauge(obs.MBuiltReflectors).Set(float64(er.BuiltReflectors))
	if !er.AuditOK {
		r.Counter(obs.MAuditFailures).Inc()
	}
	r.Counter(obs.MChurnArcs).Add(float64(er.ArcChurn))
	r.Counter(obs.MChurnReflectors).Add(float64(er.ReflectorChurn))
	r.Counter(obs.MChurnStreams).Add(float64(er.StreamChurn))
	r.Counter(obs.MChurnViewers).Add(er.ViewerChurn)
	r.Gauge(obs.MSLOWindowAvailability).Set(er.SLOWindowFrac)
	if !er.SLOOk {
		r.Counter(obs.MSLOBreaches).Inc()
	}
	for _, ra := range er.Regions {
		r.Gauge(obs.MRegionAvailability, obs.L("region", strconv.Itoa(ra.Region))).Set(ra.Frac)
	}
	for _, sa := range er.Streams {
		r.Gauge(obs.MStreamAvailability, obs.L("stream", strconv.Itoa(sa.Stream))).Set(sa.Frac)
	}
}
