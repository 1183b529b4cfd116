// Package live is the event-driven churn engine: it advances an overlay
// instance through a timed scenario — sink join/leave waves, reflector
// failures, source-uplink degradation, cost repricing, loss drift, flash
// crowds, rolling ISP outages — re-provisioning the network each epoch the
// way §1.3 of the paper describes the monitoring loop ("costs, losses and
// demands are re-measured and the network is re-provisioned").
//
// One epoch is one step of an Engine: it applies the epoch's events as
// incremental netmodel.Deltas to one evolving instance, re-solves through a
// core.Session (which carries the deployed design for stickiness biasing
// and the simplex basis for warm starts), certifies the epoch's design
// against the paper's audit, tracks the availability SLO, and reports an
// EpochReport. Run steps an Engine over a scenario's schedule; the overlayd
// daemon (internal/daemon) steps one over its ingest queue, so a replayed
// daemon timeline reports exactly what the daemon did. Policies differ only
// in stickiness and warm-start use, so running the same scenario under two
// policies quantifies exactly what incremental re-optimization buys over
// cold re-solves.
//
// Everything is deterministic in the scenario seed: event schedules, LP
// pivots, rounding, and the optional packet simulation. Only wall-clock
// fields vary between runs.
package live

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/netmodel"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/stats"
)

// Event is one timed change of a scenario: at the start of Epoch, Delta is
// applied to the evolving instance (before that epoch's re-solve).
type Event struct {
	Epoch int            `json:"epoch"`
	Delta netmodel.Delta `json:"delta"`
}

// Scenario is a timed workload: a base instance, a horizon, and a sorted
// event schedule. Constructors in this package (FlashCrowd, DiurnalWave,
// RollingISPOutage, CorrelatedBackboneFailure, GradualRepricing) build
// scenarios on gen's clustered topology from a seed.
type Scenario struct {
	Name   string             `json:"name"`
	Seed   uint64             `json:"seed"`
	Epochs int                `json:"epochs"`
	Events []Event            `json:"events"`
	Base   *netmodel.Instance `json:"base"`
	// SinkRegion maps each demand unit to its topology region (gen.Layout.
	// SinkRegion); the library constructors fill it. It drives the per-region
	// availability breakdown of EpochReport.Regions and the /slo endpoint.
	// Nil (e.g. hand-built or pre-existing recorded scenarios) disables the
	// breakdown — everything else is unaffected.
	SinkRegion []int `json:"sink_region,omitempty"`
}

// Validate checks the scenario's shape and every event's delta against the
// base instance (deltas never resize, so base-shape validation is exact).
func (sc *Scenario) Validate() error {
	if sc.Base == nil {
		return fmt.Errorf("live: scenario %q has no base instance", sc.Name)
	}
	if err := sc.Base.Validate(); err != nil {
		return fmt.Errorf("live: scenario %q base: %w", sc.Name, err)
	}
	if sc.Epochs <= 0 {
		return fmt.Errorf("live: scenario %q has non-positive horizon %d", sc.Name, sc.Epochs)
	}
	if sc.SinkRegion != nil && len(sc.SinkRegion) != sc.Base.NumSinks {
		return fmt.Errorf("live: scenario %q maps %d sink regions over %d sinks",
			sc.Name, len(sc.SinkRegion), sc.Base.NumSinks)
	}
	for _, ev := range sc.Events {
		if ev.Epoch < 0 || ev.Epoch >= sc.Epochs {
			return fmt.Errorf("live: scenario %q: event %q at epoch %d outside [0,%d)",
				sc.Name, ev.Delta.Note, ev.Epoch, sc.Epochs)
		}
		if err := ev.Delta.Validate(sc.Base); err != nil {
			return fmt.Errorf("live: scenario %q: %w", sc.Name, err)
		}
	}
	return nil
}

// Policy is a re-provisioning strategy: how strongly to bias toward the
// deployed design and whether to warm-start the simplex from the previous
// epoch's basis.
type Policy struct {
	Name       string  `json:"name"`
	Stickiness float64 `json:"stickiness"`
	WarmStart  bool    `json:"warm_start"`
}

func (p Policy) validate() error {
	if p.Stickiness < 0 || p.Stickiness >= 1 {
		return fmt.Errorf("live: policy %q stickiness %g outside [0,1)", p.Name, p.Stickiness)
	}
	return nil
}

// ColdPolicy re-solves every epoch from scratch with no deployment bias —
// the static-snapshot baseline.
func ColdPolicy() Policy { return Policy{Name: "cold"} }

// WarmStickyPolicy warm-starts each epoch from the prior basis and biases
// toward the deployed design — the incremental operations policy.
func WarmStickyPolicy() Policy {
	return Policy{Name: "warm+sticky", Stickiness: 0.4, WarmStart: true}
}

// Config parameterizes a Run.
type Config struct {
	// Solver configures each epoch's solve (DefaultOptions(seed) if zero).
	Solver core.Options
	// Policy selects the re-provisioning strategy.
	Policy Policy
	// SimPackets > 0 additionally plays that many packets through each
	// simulated epoch's design (internal/sim) and records delivered
	// quality next to the analytic audit.
	SimPackets int
	// SimEvery simulates only every n-th epoch (default 1 = all) — the
	// packet sim costs far more than the re-solve at scale.
	SimEvery int
	// Obs, when non-nil, receives the run's observability signals: the
	// canonical metric families (epoch gauges and counters, churn, SLO,
	// epoch-wall histogram — plus everything the solver stack records
	// through the same observer) and one trace span per epoch with the core
	// stages nested under it. A nil Obs leaves the run byte-identical.
	Obs *obs.Observer
	// OnEpoch, when non-nil, is called after each epoch's report is final
	// (metrics already fed) — the hook the CLI uses to refresh its /healthz
	// and /slo state and to pace the timeline.
	OnEpoch func(er EpochReport)
	// SLOWindow is the sliding window (in epochs) of the availability SLO
	// tracker; default DefaultSLOWindow. SLOTarget is the fraction of
	// active sinks that must meet their exact reliability threshold for an
	// epoch to count as available; default DefaultSLOTarget, deliberately
	// below the ~60% met-demand a repair-less solve delivers in steady state
	// (the paper guarantees W/4 weight, not full demand), so breaches flag
	// genuine incidents — outages, flash-crowd onsets — rather than firing
	// every epoch; operators running RepairCoverage-style solvers should
	// raise it toward 1.
	SLOWindow int
	SLOTarget float64
}

// EpochReport records one Engine step: one epoch of a Run, or one overlayd
// solve. All fields except WallNS and StageWallNS are deterministic in the
// scenario seed and policy.
type EpochReport struct {
	Epoch int `json:"epoch"`
	// Events names the deltas applied this epoch; Edits counts their
	// atomic changes.
	Events []string `json:"events,omitempty"`
	Edits  int      `json:"edits"`
	// ActiveSinks counts demand units (subscriptions) with positive
	// thresholds after the epoch's events; ActiveViewers counts the real
	// sinks behind them — a 3-stream viewer is one viewer, three active
	// sinks. Equal on single-stream instances.
	ActiveSinks   int `json:"active_sinks"`
	ActiveViewers int `json:"active_viewers"`
	// TrueCost is the deployed design's cost on the true (unbiased)
	// instance; LPCost the epoch LP optimum (of the biased LP under a
	// sticky policy — informational).
	TrueCost float64 `json:"true_cost"`
	LPCost   float64 `json:"lp_cost"`
	// Pivots counts simplex iterations this epoch; Retries the audit
	// re-randomizations.
	Pivots  int `json:"pivots"`
	Retries int `json:"retries"`
	// ArcChurn / ReflectorChurn count changes against the previous
	// epoch's deployment (service-arc flips / build flips). StreamChurn
	// counts subscriptions whose serving set changed, and ViewerChurn is
	// the stream-level viewer accounting: each real sink contributes the
	// FRACTION of its streams that moved, so a one-stream switch on a
	// 3-stream sink reports 1/3 of a viewer, where the paper's copy-split
	// view would have charged a full one.
	ArcChurn       int     `json:"arc_churn"`
	ReflectorChurn int     `json:"reflector_churn"`
	StreamChurn    int     `json:"stream_churn"`
	ViewerChurn    float64 `json:"viewer_churn"`
	// BuiltReflectors counts reflectors in service this epoch.
	BuiltReflectors int `json:"built_reflectors"`
	// Audit summary of the epoch's design on the true instance.
	WeightFactor float64 `json:"weight_factor"`
	FanoutFactor float64 `json:"fanout_factor"`
	MetDemand    int     `json:"met_demand"`
	AuditOK      bool    `json:"audit_ok"`
	WallNS       int64   `json:"wall_ns"`
	// StageWallNS breaks WallNS down by pipeline stage (lp-build, lp-patch,
	// lp-solve, ... — or the shard-* stages of a sharded run). Wall clock,
	// so nondeterministic like WallNS.
	StageWallNS map[string]int64 `json:"stage_wall_ns,omitempty"`
	// LPPatches counts the LP cells the incremental rebuild rewrote this
	// epoch (summed over shards on the sharded path); LPRebuilds counts
	// full LP builds it fell back to (epoch 0 is always a build).
	LPPatches  int `json:"lp_patches"`
	LPRebuilds int `json:"lp_rebuilds"`
	// Solver factorization telemetry (summed over shards on the sharded
	// path): Refactorizations counts from-scratch basis factorizations,
	// FTUpdates warm starts that resumed a persisted factorization instead,
	// WarmFallbacks warm starts abandoned for a cold re-solve, and
	// ExtractionsSkipped the
	// shards that reused their cached sub-instance without extraction
	// (always 0 on the monolithic path).
	Refactorizations   int `json:"refactorizations"`
	FTUpdates          int `json:"ft_updates"`
	WarmFallbacks      int `json:"warm_fallbacks"`
	ExtractionsSkipped int `json:"extractions_skipped"`
	// LPWarmOffered reports whether the main LP (a shard's, on the sharded
	// path) was offered a basis it could start from, and LPWarm whether it
	// then finished warm, with no warm fallback. An epoch that solved cold
	// because it had no basis reads false for both, where WarmFallbacks
	// alone would read 0.
	LPWarmOffered bool `json:"lp_warm_offered"`
	LPWarm        bool `json:"lp_warm"`
	// SLOOk reports whether this epoch met the availability target
	// (MetDemand ≥ SLOTarget × ActiveSinks); SLOWindowFrac is the fraction
	// of the trailing SLOWindow epochs (including this one) that did.
	SLOOk         bool    `json:"slo_ok"`
	SLOWindowFrac float64 `json:"slo_window_frac"`
	// Regions breaks availability down by topology region (present only
	// when the scenario carries a SinkRegion map). Deterministic like the
	// audit it derives from.
	Regions []obs.RegionSLO `json:"regions,omitempty"`
	// Streams breaks availability down by stream (commodity) — present on
	// every multi-commodity instance, no scenario map needed.
	Streams []obs.StreamSLO `json:"streams,omitempty"`
	// Packet-sim quality: meaningful only when SimRan is true (the epoch
	// was simulated). The numeric fields are always serialized so a
	// measured zero is distinguishable from "not simulated".
	SimRan          bool    `json:"sim_ran"`
	SimMeanPostLoss float64 `json:"sim_mean_post_loss"`
	SimMeetCount    int     `json:"sim_meet_count"`
}

// RunReport aggregates a full timeline under one policy.
type RunReport struct {
	Scenario string        `json:"scenario"`
	Policy   Policy        `json:"policy"`
	Seed     uint64        `json:"seed"`
	Epochs   []EpochReport `json:"epochs"`
	// Totals across epochs.
	TotalPivots         int     `json:"total_pivots"`
	TotalArcChurn       int     `json:"total_arc_churn"`
	TotalReflectorChurn int     `json:"total_reflector_churn"`
	TotalStreamChurn    int     `json:"total_stream_churn"`
	TotalViewerChurn    float64 `json:"total_viewer_churn"`
	TotalTrueCost       float64 `json:"total_true_cost"`
	TotalWallNS         int64   `json:"total_wall_ns"`
	// AllAuditOK reports whether every epoch met the paper's guarantee.
	AllAuditOK bool `json:"all_audit_ok"`
	// Incremental LP rebuild totals.
	TotalLPPatches  int `json:"total_lp_patches"`
	TotalLPRebuilds int `json:"total_lp_rebuilds"`
	// Solver factorization totals across epochs.
	TotalRefactorizations   int `json:"total_refactorizations"`
	TotalFTUpdates          int `json:"total_ft_updates"`
	TotalWarmFallbacks      int `json:"total_warm_fallbacks"`
	TotalExtractionsSkipped int `json:"total_extractions_skipped"`
	// Path-LP totals across epochs, counted apart from the main LP's
	// totals above (core.Result.PathLP, summed over shards on the sharded
	// path):
	// pivots of both stages, calls by how their LP started (resumed in
	// place, warm through a key map, or from nothing), and warm starts
	// abandoned for a cold re-solve. EpochReport leaves the per-epoch
	// numbers out: a restored session's first path LP starts cold, and an
	// epoch's report must not depend on whether its session was restored.
	TotalPathPivots        int `json:"total_path_pivots"`
	TotalPathResumed       int `json:"total_path_resumed"`
	TotalPathRemapped      int `json:"total_path_remapped"`
	TotalPathCold          int `json:"total_path_cold"`
	TotalPathWarmFallbacks int `json:"total_path_warm_fallbacks"`
	// Availability SLO summary: the window/target the tracker ran with,
	// the number of epochs missing the target, and the worst trailing-
	// window availability seen over the timeline.
	SLOWindow    int     `json:"slo_window"`
	SLOTarget    float64 `json:"slo_target"`
	SLOBreaches  int     `json:"slo_breaches"`
	MinSLOWindow float64 `json:"min_slo_window"`
	// EpochWallQuantiles summarizes the per-epoch solve wall across the
	// timeline, and StageWallQuantiles breaks the same summary down by
	// pipeline stage. Wall-clock derived, so nondeterministic like WallNS
	// (determinism and replay comparisons scrub them).
	EpochWallQuantiles WallQuantiles            `json:"epoch_wall_quantiles"`
	StageWallQuantiles map[string]WallQuantiles `json:"stage_wall_quantiles,omitempty"`
}

// WallQuantiles are order statistics of a wall-time sample (nanoseconds,
// matching the WallNS fields they summarize).
type WallQuantiles struct {
	P50NS int64 `json:"p50_ns"`
	P95NS int64 `json:"p95_ns"`
	P99NS int64 `json:"p99_ns"`
}

// wallQuantiles summarizes ns samples via the shared stats helper.
func wallQuantiles(ns []float64) WallQuantiles {
	qs := stats.Quantiles(ns, 0.5, 0.95, 0.99)
	return WallQuantiles{P50NS: int64(qs[0]), P95NS: int64(qs[1]), P99NS: int64(qs[2])}
}

// LPConstructionNS sums the run's model-construction wall across epochs:
// the lp-build stages (full builds) plus the lp-patch stages (in-place
// delta patches), which overlaylive prints beside the build and patch
// counts.
func (r *RunReport) LPConstructionNS() int64 {
	var total int64
	for _, er := range r.Epochs {
		total += er.StageWallNS["lp-build"] + er.StageWallNS["lp-patch"]
	}
	return total
}

// Run advances the scenario epoch by epoch under one policy.
func Run(sc *Scenario, cfg Config) (*RunReport, error) {
	if err := sc.Validate(); err != nil {
		return nil, err
	}
	if err := cfg.Policy.validate(); err != nil {
		return nil, err
	}
	if cfg.Solver.Seed == 0 {
		cfg.Solver.Seed = sc.Seed
	}
	if cfg.SimEvery <= 0 {
		cfg.SimEvery = 1
	}
	byEpoch := make(map[int][]netmodel.Delta, len(sc.Events))
	for _, ev := range sc.Events {
		byEpoch[ev.Epoch] = append(byEpoch[ev.Epoch], ev.Delta)
	}

	in := sc.Base.Clone()
	sess := core.NewSession(cfg.Solver, cfg.Policy.Stickiness, cfg.Policy.WarmStart)
	eng := NewEngine(in, sess, sc.SinkRegion, cfg.SLOWindow, cfg.SLOTarget, cfg.Obs)
	slo := eng.SLO()
	rep := &RunReport{
		Scenario: sc.Name, Policy: cfg.Policy, Seed: sc.Seed, AllAuditOK: true,
		SLOWindow: slo.Window, SLOTarget: slo.Target,
	}

	for e := 0; e < sc.Epochs; e++ {
		for _, d := range byEpoch[e] {
			if err := eng.Apply(d); err != nil {
				return nil, err
			}
		}
		er, res, err := eng.Step()
		if err != nil {
			return nil, err
		}
		if cfg.SimPackets > 0 && e%cfg.SimEvery == 0 {
			scfg := sim.DefaultConfig(sc.Seed + 0x5deece66d*uint64(e+1))
			scfg.Packets = cfg.SimPackets
			sr := sim.Run(in, res.Design, scfg)
			er.SimRan = true
			er.SimMeanPostLoss = sr.MeanPostLoss
			er.SimMeetCount = sr.MeetCount
		}

		rep.Epochs = append(rep.Epochs, er)
		rep.TotalPivots += er.Pivots
		rep.TotalArcChurn += er.ArcChurn
		rep.TotalReflectorChurn += er.ReflectorChurn
		rep.TotalStreamChurn += er.StreamChurn
		rep.TotalViewerChurn += er.ViewerChurn
		rep.TotalTrueCost += er.TrueCost
		rep.TotalWallNS += er.WallNS
		rep.TotalLPPatches += er.LPPatches
		rep.TotalLPRebuilds += er.LPRebuilds
		rep.TotalRefactorizations += er.Refactorizations
		rep.TotalFTUpdates += er.FTUpdates
		rep.TotalWarmFallbacks += er.WarmFallbacks
		rep.TotalExtractionsSkipped += er.ExtractionsSkipped
		rep.TotalPathPivots += res.PathLP.Pivots
		rep.TotalPathResumed += res.PathLP.Resumed
		rep.TotalPathRemapped += res.PathLP.Remapped
		rep.TotalPathCold += res.PathLP.Cold
		rep.TotalPathWarmFallbacks += res.PathLP.LPStats.WarmFallbacks
		if !er.AuditOK {
			rep.AllAuditOK = false
		}
		if cfg.OnEpoch != nil {
			cfg.OnEpoch(er)
		}
	}
	rep.SLOBreaches = slo.Breaches()
	rep.MinSLOWindow = slo.MinWindowFrac()

	// Wall-time order statistics across the timeline: the whole-epoch solve
	// wall, and each stage over the epochs it actually ran in (lp-build, for
	// example, typically runs only in epoch 0 under the incremental rebuild).
	walls := make([]float64, 0, len(rep.Epochs))
	stageWalls := make(map[string][]float64)
	for _, er := range rep.Epochs {
		walls = append(walls, float64(er.WallNS))
		for name, ns := range er.StageWallNS {
			stageWalls[name] = append(stageWalls[name], float64(ns))
		}
	}
	rep.EpochWallQuantiles = wallQuantiles(walls)
	if len(stageWalls) > 0 {
		rep.StageWallQuantiles = make(map[string]WallQuantiles, len(stageWalls))
		for name, ns := range stageWalls {
			rep.StageWallQuantiles[name] = wallQuantiles(ns)
		}
	}
	return rep, nil
}

// ComparePolicies runs the same timeline once per policy (each from a fresh
// clone of the base), returning reports in policy order. This is the
// instrument for the repo's headline claim that warm incremental re-solves
// beat cold ones by a wide pivot margin across a whole timeline.
func ComparePolicies(sc *Scenario, policies []Policy, cfg Config) ([]*RunReport, error) {
	// Reject any bad policy before spending time on the earlier ones.
	for _, p := range policies {
		if err := p.validate(); err != nil {
			return nil, err
		}
	}
	out := make([]*RunReport, 0, len(policies))
	for _, p := range policies {
		c := cfg
		c.Policy = p
		rep, err := Run(sc, c)
		if err != nil {
			return nil, fmt.Errorf("live: policy %q: %w", p.Name, err)
		}
		out = append(out, rep)
	}
	return out, nil
}
