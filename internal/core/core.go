// Package core assembles the paper's end-to-end approximation algorithm:
//
//  1. solve the LP relaxation of the §2 integer program exactly
//     (internal/lpmodel + internal/lp),
//  2. randomized rounding of z and y (§3, internal/round),
//  3. integralize the remaining fractional x either with the modified GAP
//     flow network (§5, internal/gapflow) or — when §6.3 edge capacities or
//     §6.4 color constraints are present — with the §6.5 path-LP dependent
//     rounding (internal/stround),
//  4. audit every constraint of the final design and re-randomize when a
//     low-probability tail event pushed a violation past the paper's
//     guarantees (the lemmas hold w.h.p., not always; operationally §1.3
//     says the algorithm "can be rerun as often as needed").
package core

import (
	"fmt"
	"math"
	"slices"
	"time"

	"repro/internal/agg"
	"repro/internal/gapflow"
	"repro/internal/lp"
	"repro/internal/lpmodel"
	"repro/internal/netmodel"
	"repro/internal/obs"
	"repro/internal/round"
	"repro/internal/shard"
	"repro/internal/stround"
)

// Options configures Solve.
type Options struct {
	// C is the rounding multiplier constant of §3 (default 64, the value
	// that gives the δ=1/4 weight guarantee of Lemma 4.3).
	C float64
	// Seed drives all randomness.
	Seed uint64
	// ForcePathRounding uses the §6.5 path rounding even without
	// colors/edge capacities (for ablation experiments).
	ForcePathRounding bool
	// DisableCuttingPlane drops constraint (4) from the LP (ablation;
	// Claim 2.1 shows the IP doesn't need it, §4 shows the rounding does).
	DisableCuttingPlane bool
	// LPOnly stops after the LP relaxation (used by experiments that
	// only need the fractional optimum).
	LPOnly bool
	// RepairCoverage runs the §7-style greedy repair pass after
	// rounding, topping every sink up to its FULL weight demand where
	// capacity admits (colors stay hard, fanout ≤ 4F). The paper's
	// guarantee is W/4; operators want W — this is the bridge.
	RepairCoverage bool
	// Shards ≥ 2 partitions the instance into that many commodity-region
	// shards solved in parallel with a capacity-coordination pass
	// (internal/shard); the pipeline then runs the shard-partition /
	// shard-solve / shard-coordinate stages instead of lp-build/lp-solve/
	// round/integralize/repair. 0 or 1 solves monolithically, as does
	// LPOnly (the fractional optimum of the monolithic LP is what LPOnly
	// callers want — shard-sum LP costs are not comparable).
	Shards int
	// ShardRounds caps the coordination rounds of a sharded solve
	// (default 3).
	ShardRounds int
	// StageMemStats additionally records per-stage allocation counters in
	// Result.Stages, read from the runtime/metrics allocation totals
	// (obs.ReadAllocs — cheap, no stop-the-world). The counters are
	// process-global: exact for the common one-solve-at-a-time case,
	// attribution-approximate when a stage co-runs with other allocating
	// goroutines (which is why the per-shard solves inside shard-solve keep
	// it off). Off by default.
	StageMemStats bool
	// Obs, when non-nil, receives observability signals from the solve:
	// per-stage spans and wall/run metrics from the pipeline tracker, LP
	// factorization events attached to the lp-solve span, per-shard child
	// spans, and the Result-derived solver counters (pivots,
	// refactorizations, FT adoptions, patch cells, shard coordination) fed
	// once per top-level Solve. A nil Obs costs one nil check per site and
	// leaves the solve byte-identical.
	Obs *obs.Observer
	// Aggregate, when non-nil, folds the instance's viewers into weighted
	// super-sinks keyed by (group, stream-slot set) before the pipeline
	// runs (internal/agg), solves the LP over the aggregates — whose count
	// depends on the network's region/ISP structure, not the viewer
	// population — and disaggregates the result back to real viewers with a
	// deterministic sticky pass. The pipeline gains an aggregate stage up
	// front and a disaggregate stage (which re-audits against the true
	// instance) at the end. Inside a Session the aggregation state persists
	// across epochs and the delta flow is folded through it, so
	// weight-neutral churn solves LP-free.
	Aggregate *agg.Config

	// refactorOnInstall makes every warm-started LP solve refactorize its
	// basis at install instead of resuming a persisted factorization (see
	// lp.Options.RefactorOnInstall): the pre-persistence reference arm,
	// which only tests switch on.
	refactorOnInstall bool
	// rebuildLP makes a Session build every LP afresh each Step, extracting
	// every shard anew, as a one-shot solve does, instead of patching it
	// from the delta flow: the rebuild reference arm, which only tests
	// switch on.
	rebuildLP bool
}

// carry is the state one LP's solves thread from one solve into the next:
// what a warm start resumes and what the incremental LP rebuild patches. A
// Session hands one to each of its solves, and the solve leaves in it what
// the next one starts from (basis, shards and shard LPs). A one-shot Solve
// has none, so nothing a session carries can reach it: it builds every LP,
// extracts every shard and solves every LP cold. Every shard LP of a sharded
// solve has a carry of the same kind (shardLPs, see solveSharded).
type carry struct {
	// fixedShape pins the LP shape to the instance dimensions
	// (lpmodel.Options.FixedShape), so the basis and the Patcher stay valid
	// while sinks join and leave. Every carry of a Session's solve sets it,
	// per-shard ones included; the per-shard carries of a one-shot sharded
	// solve, which hold only a coordination round's basis, do not.
	fixedShape bool
	// basis warm-starts the main LP (nil: cold).
	basis *lp.Basis
	// shards is the sharded path's state (see shard.State), and shardLPs
	// one carry per shard of its partition; both are kept and dropped
	// together.
	shards   *shard.State
	shardLPs []carry
	// patcher and dirty drive the lp-patch stage: the persistent patch state
	// and the dirty set accumulated since the previous solve (nil patcher:
	// build the LP afresh).
	patcher *lpmodel.Patcher
	dirty   *netmodel.DirtySet
	// path carries the §6.5 path LP across the integralize runs of the
	// solve's audit attempts and into the next solve (see stround.State);
	// nil solves every path LP from nothing.
	path *stround.State
}

// DefaultOptions returns the paper's constants.
func DefaultOptions(seed uint64) Options {
	return Options{C: 64, Seed: seed}
}

// maxRetries is how often a monolithic solve re-runs its randomized stages
// when the audited design misses the paper's end-to-end guarantee
// (weight ≥ W/4, fanout ≤ 4F).
const maxRetries = 8

// Result is the outcome of Solve.
type Result struct {
	Design *netmodel.Design
	Audit  netmodel.Audit
	// Frac is the LP optimum; LPCost its objective (the lower bound on
	// OPT used in every approximation-ratio experiment). A sharded solve
	// has no monolithic LP: Frac is nil and LPCost is the sum of the
	// per-shard LP optima (diagnostic — merging deduplicates reflector
	// build costs, so the sum is not a bound on the merged cost).
	Frac   *lpmodel.FracSolution
	LPCost float64
	// PathRounding reports whether §6.5 replaced the §5 GAP stage.
	PathRounding bool
	// STResult is set when path rounding ran.
	STResult *stround.Result
	Retries  int
	// Stages is the per-stage instrumentation of the solve pipeline
	// (wall time, allocation counters, run counts), aggregated by stage
	// name across audit retries.
	Stages []StageStats
	// LPStats totals the solver's factorization events across the solve —
	// refactorizations, adopted (persisted) factorizations, warm fallbacks.
	// For sharded solves it sums over shards. It counts the main LP only.
	LPStats lp.SolveStats
	// LPPivots counts the main LP's simplex pivots, and LPVars and LPRows
	// give its size; sharded solves sum the pivots over shards and
	// coordination rounds, and the size over shards.
	LPPivots       int
	LPVars, LPRows int
	// LPPatches counts the LP cells (matrix, rhs and objective) the
	// lp-patch stage rewrote, and LPRebuilds the full lp-builds a carried
	// Patcher fell back to; both are 0 when no Patcher ran (a one-shot
	// solve builds its LP afresh). Sharded solves sum both over shards and
	// coordination rounds.
	LPPatches, LPRebuilds int
	// PathLP sums the §6.5 path LP's solver work over the solve's audit
	// attempts: pivots, solver events, and how many calls resumed, remapped
	// or solved it cold (zero when path rounding did not run). Sharded
	// solves sum it over shards and coordination rounds.
	PathLP stround.Totals
	// ShardInfo summarizes the sharded path (nil for monolithic solves).
	ShardInfo *ShardInfo
}

// ShardInfo reports how a sharded solve went.
type ShardInfo struct {
	// Shards is the effective shard count (the requested count clamped to
	// the sink population).
	Shards int
	// Rounds counts coordination rounds (0 = the initial capacity split
	// was never contested); Resolves the shard re-solves they triggered;
	// ConsolidatedBuilds the duplicate builds the merge-dedup removed.
	Rounds             int
	Resolves           int
	ConsolidatedBuilds int
	// PerShardPatches and PerShardRebuilds break LPPatches and LPRebuilds
	// down by shard (all zero outside a Session). A shard no delta touched
	// shows 0 in both — the dirty routing by the stable sink partition is
	// what keeps a one-region churn event from touching the other shards'
	// LPs.
	PerShardPatches  []int
	PerShardRebuilds []int
	// LPBuildNS / LPPatchNS sum the per-shard model-construction stage
	// walls, which the outer shard-solve stage timing subsumes (totals
	// across concurrent shards, not elapsed wall).
	LPBuildNS, LPPatchNS int64
	// ExtractionsSkipped counts shards that reused their cached
	// sub-instance this epoch because their routed dirty set was empty —
	// the zero-copy path that never touches extract.
	ExtractionsSkipped int
	// PerShardStats breaks Result.LPStats down by shard (nil when the
	// shard path didn't run).
	PerShardStats []lp.SolveStats
	// Fallback reports that coordination could not feed every shard (a
	// shard's LP stayed infeasible at the round cap) and the result came
	// from a monolithic fallback solve instead.
	Fallback bool
}

// lpOptions derives the model options of a solve from the instance, the
// pipeline options and whether the LP shape is pinned (carry.fixedShape):
// one definition shared by the build and patch paths, so the two can never
// drift apart.
func lpOptions(in *netmodel.Instance, opts Options, fixedShape bool) lpmodel.Options {
	lpOpts := lpmodel.DefaultOptions(in)
	lpOpts.CuttingPlane = !opts.DisableCuttingPlane
	lpOpts.FixedShape = fixedShape
	return lpOpts
}

// lpOptions returns the model options of the pipeline's solve.
func (ps *pipelineState) lpOptions() lpmodel.Options {
	return lpOptions(ps.in, ps.opts, ps.carry.fixedShape)
}

// lpStages is the head of the pipeline: model construction and the exact
// simplex solve, warm-started from the carried basis. It runs once per
// Solve. With a carried Patcher the construction step becomes lp-patch —
// delta-sized in-place updates of the persistent problem — except on epochs
// where the patcher must fall back to a full build (the first, or a
// shape/options change), which still report as lp-build.
func lpStages(ps *pipelineState) []Stage {
	solve := Stage{Name: "lp-solve", Run: func(ps *pipelineState) error {
		sopts := lp.Options{WarmStart: ps.carry.basis, RefactorOnInstall: ps.opts.refactorOnInstall}
		if sp := ps.stageSpan; sp != nil {
			// Surface the simplex internals on the lp-solve span:
			// refactorizations, FT adoptions, column replacements, basis
			// repairs and warm fallbacks land as span events with their
			// pivot iteration.
			sopts.Events = func(e lp.Event) {
				sp.Event(e.Kind.String(), obs.A("iteration", e.Iteration))
			}
		}
		frac, err := lpmodel.SolveBuiltOpts(ps.in, ps.prob, ps.vm, sopts)
		if err != nil {
			return err
		}
		ps.frac = frac
		return nil
	}}
	if pt := ps.carry.patcher; pt != nil {
		name := "lp-patch"
		if pt.NeedsRebuild(ps.in, ps.lpOptions()) {
			name = "lp-build"
		}
		return []Stage{
			{Name: name, Run: func(ps *pipelineState) error {
				var st lpmodel.PatchStats
				ps.prob, ps.vm, st = pt.Sync(ps.in, ps.lpOptions(), ps.carry.dirty)
				ps.lpPatches = st.Patches()
				if st.Rebuilt {
					ps.lpRebuilds = 1
				}
				return nil
			}},
			solve,
		}
	}
	return []Stage{
		{Name: "lp-build", Run: func(ps *pipelineState) error {
			ps.prob, ps.vm = lpmodel.Build(ps.in, ps.lpOptions())
			return nil
		}},
		solve,
	}
}

// attemptStages is the randomized tail of the pipeline: §3 rounding, §5/
// §6.5 integralization, the optional repair pass, and the guarantee audit.
// Solve re-runs the whole tail on audit retries.
func attemptStages() []Stage {
	return []Stage{
		{Name: "round", Run: func(ps *pipelineState) error {
			rOpts := round.DefaultOptions(ps.seed)
			rOpts.C = ps.opts.C
			ps.rounded = round.Apply(ps.in, ps.frac, rOpts)
			return nil
		}},
		{Name: "integralize", Run: func(ps *pipelineState) error {
			design := netmodel.NewDesign(ps.in)
			copyBools(design.Build, ps.rounded.ZBar)
			for k := range ps.rounded.YBar {
				copyBools(design.Ingest[k], ps.rounded.YBar[k])
			}
			ps.stRes = nil
			if ps.usePath {
				stRes, err := ps.carry.path.Round(ps.in, ps.rounded.XBar, stround.DefaultOptions(ps.seed^0xabcdef))
				if err != nil {
					return fmt.Errorf("path rounding: %w", err)
				}
				ps.stRes = stRes
				ps.pathLP.Add(stRes)
				for i := range stRes.Serve {
					copyBools(design.Serve[i], stRes.Serve[i])
				}
			} else {
				gapRes := gapflow.Round(ps.in, ps.rounded.XBar)
				for i := range gapRes.Serve {
					copyBools(design.Serve[i], gapRes.Serve[i])
				}
			}
			design.Normalize(ps.in)
			ps.design = design
			return nil
		}},
		{Name: "repair", Run: func(ps *pipelineState) error {
			if ps.opts.RepairCoverage {
				RepairCoverage(ps.in, ps.design, 4)
			}
			return nil
		}},
		{Name: "audit", Run: func(ps *pipelineState) error {
			ps.audit = netmodel.AuditDesign(ps.in, ps.design)
			return nil
		}},
	}
}

// Solve runs the full algorithm as a staged pipeline. A monolithic solve
// (Options.Shards ≤ 1) runs lp-build → lp-solve once, then round →
// integralize → repair → audit per attempt until the audited design meets
// the paper's guarantee (or maxRetries is exhausted, returning the best
// attempt). With Options.Shards ≥ 2 the pipeline instead runs
// shard-partition → shard-solve → shard-coordinate → audit, solving one
// small LP per commodity-region shard in parallel (see internal/shard).
// With Options.Aggregate either pipeline runs on the aggregate plane,
// between an aggregate and a disaggregate stage (see aggPlane.solve).
// Per-stage wall time and allocation counters land in Result.Stages either
// way.
func Solve(in *netmodel.Instance, opts Options) (*Result, error) {
	return solve(in, opts, nil)
}

// solve is Solve with the carried state of a Session's solve (nil for a
// one-shot solve). An aggregated solve here is always one-shot: a Session
// runs the aggregation bracket itself and solves the plane with its carry.
func solve(in *netmodel.Instance, opts Options, c *carry) (*Result, error) {
	if err := in.Validate(); err != nil {
		return nil, err
	}
	if opts.C == 0 {
		opts.C = 64
	}
	var res *Result
	var err error
	if opts.Aggregate != nil {
		res, err = new(aggPlane).solve(in, opts, nil, nil, func(plane *netmodel.Instance, _ *netmodel.Design, _ *netmodel.DirtySet, opts Options) (*Result, error) {
			return solvePlane(plane, opts, nil)
		})
	} else {
		res, err = solvePlane(in, opts, c)
	}
	if err == nil {
		recordSolve(opts.Obs, res)
	}
	return res, err
}

// solvePlane runs the sharded or the monolithic pipeline on in. The sharded
// path needs at least two nonempty shards to be a decomposition at all (two
// real sinks — a viewer's streams are shard-atomic); LPOnly wants the
// monolithic fractional optimum.
func solvePlane(in *netmodel.Instance, opts Options, c *carry) (*Result, error) {
	if opts.Shards >= 2 && in.NumViewers() >= 2 && !opts.LPOnly {
		return solveSharded(in, opts, c)
	}
	return solveMono(in, opts, c)
}

// recordSolve feeds the Result-derived solver counters into the metrics
// registry. It runs exactly once per top-level Solve — nested per-shard
// solves carry a TraceOnly observer, so nothing here double-counts; the
// outer Result already aggregates their stats.
func recordSolve(o *obs.Observer, res *Result) {
	if o == nil || o.Reg == nil {
		return
	}
	o.Counter(obs.MSolvesTotal).Inc()
	o.Counter(obs.MLPPivots).Add(float64(res.LPPivots))
	o.Counter(obs.MLPRefactorizations).Add(float64(res.LPStats.Refactorizations))
	o.Counter(obs.MLPFTUpdates).Add(float64(res.LPStats.FTUpdates))
	o.Counter(obs.MLPWarmFallbacks).Add(float64(res.LPStats.WarmFallbacks))
	o.Counter(obs.MLPBasisRepairs).Add(float64(res.LPStats.Repairs))
	pl := res.PathLP
	o.Counter(obs.MPathLPPivots).Add(float64(pl.Pivots))
	o.Counter(obs.MPathLPWarmFallbacks).Add(float64(pl.LPStats.WarmFallbacks))
	for _, c := range []struct {
		start stround.Start
		n     int
	}{{stround.StartResumed, pl.Resumed}, {stround.StartRemapped, pl.Remapped}, {stround.StartCold, pl.Cold}} {
		if c.n > 0 {
			o.Counter(obs.MPathLPSolves, obs.L("start", c.start.String())).Add(float64(c.n))
		}
	}
	o.Counter(obs.MLPPatchedCells).Add(float64(res.LPPatches))
	o.Counter(obs.MLPRebuilds).Add(float64(res.LPRebuilds))
	if si := res.ShardInfo; si != nil {
		o.Counter(obs.MShardRebidRounds).Add(float64(si.Rounds))
		o.Counter(obs.MShardResolves).Add(float64(si.Resolves))
		o.Counter(obs.MShardExtractionsSkipped).Add(float64(si.ExtractionsSkipped))
		if si.Fallback {
			o.Counter(obs.MShardFallbacks).Inc()
		}
	}
}

// solveMono is the monolithic pipeline (the paper's algorithm as one LP). It
// leaves the LP's final basis in the carry c (nil for a one-shot solve).
func solveMono(in *netmodel.Instance, opts Options, c *carry) (*Result, error) {
	if c == nil {
		c = &carry{}
	}
	ps := &pipelineState{in: in, opts: opts, carry: *c}
	tracker := newStageTracker(opts.StageMemStats, opts.Obs)
	if err := tracker.runAll(lpStages(ps), ps); err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	frac := ps.frac
	c.basis = frac.Basis

	res := &Result{
		Frac:       frac,
		LPCost:     frac.Cost,
		LPStats:    frac.Stats,
		LPPivots:   frac.Iterations,
		LPVars:     ps.prob.NumVars(),
		LPRows:     ps.prob.NumRows(),
		LPPatches:  ps.lpPatches,
		LPRebuilds: ps.lpRebuilds,
		Stages:     tracker.stats,
	}
	if opts.LPOnly {
		return res, nil
	}

	ps.usePath = usePathRounding(in, opts)
	tail := attemptStages()

	var best *Result
	for attempt := 0; attempt <= maxRetries; attempt++ {
		ps.seed = opts.Seed + uint64(attempt)*0x9e3779b97f4a7c15

		if err := tracker.runAll(tail, ps); err != nil {
			return nil, fmt.Errorf("core: %w", err)
		}

		cand := *res
		cand.Design, cand.Audit = ps.design, ps.audit
		cand.PathRounding, cand.STResult, cand.PathLP = ps.usePath, ps.stRes, ps.pathLP
		cand.Retries = attempt
		cand.Stages = tracker.stats

		if best == nil || betterResult(&cand, best) {
			best = &cand
		}
		if MeetsGuarantee(ps.audit, ps.usePath) {
			return &cand, nil
		}
	}
	best.Stages = tracker.stats
	best.PathLP = ps.pathLP
	return best, nil
}

// StageWall sums the wall time of the named stages across their runs (0 for
// a stage that never ran).
func (r *Result) StageWall(names ...string) time.Duration {
	var total time.Duration
	for _, st := range r.Stages {
		if slices.Contains(names, st.Name) {
			total += st.Wall
		}
	}
	return total
}

// AuditOK reports whether the result's design passed the full audit: the
// structure constraints hold and the paper's end-to-end guarantee is met
// under the rounding variant that produced it. CLIs, experiments, and the
// live engine all certify results through this one predicate.
func (r *Result) AuditOK() bool {
	return r.Audit.StructureOK && MeetsGuarantee(r.Audit, r.PathRounding)
}

// usePathRounding reports whether the §6.5 path rounding replaces the §5
// GAP stage: forced by options, or required by color / edge-capacity
// extensions, or by per-unit weights (the GAP flow network counts every
// served sink as one integral capacity unit, so a weighted aggregate would
// overpack reflector fanout; the path LP carries real unit loads). Both the
// monolithic and the sharded pipeline key the audit guarantee variant off
// this single predicate.
func usePathRounding(in *netmodel.Instance, opts Options) bool {
	return opts.ForcePathRounding || in.Color != nil || in.EdgeCap != nil || in.Weighted()
}

// MeetsGuarantee checks the paper's end-to-end bounds: every sink keeps at
// least a quarter of its weight demand and no reflector exceeds 4× fanout
// (§5 summary). Path rounding promises additive-7 violations instead of the
// multiplicative-4 fanout bound, so accept either form there. The live
// engine uses it to certify every epoch's design.
func MeetsGuarantee(a netmodel.Audit, pathRounding bool) bool {
	if a.WeightFactor < 0.25-1e-9 {
		return false
	}
	if !pathRounding {
		return a.FanoutFactor <= 4+1e-9
	}
	return true
}

func betterResult(a, b *Result) bool {
	if a.Audit.WeightFactor != b.Audit.WeightFactor {
		return a.Audit.WeightFactor > b.Audit.WeightFactor
	}
	if a.Audit.FanoutFactor != b.Audit.FanoutFactor {
		return a.Audit.FanoutFactor < b.Audit.FanoutFactor
	}
	return a.Audit.Cost < b.Audit.Cost
}

func copyBools(dst, src []bool) {
	copy(dst, src)
}

// ApproxRatio returns the cost ratio of the design versus the LP lower
// bound (an upper bound on the true approximation ratio).
func (r *Result) ApproxRatio() float64 {
	if r.LPCost <= 0 {
		return math.Inf(1)
	}
	return r.Audit.Cost / r.LPCost
}
