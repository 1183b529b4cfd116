package core

import (
	"errors"
	"fmt"

	"repro/internal/lp"
	"repro/internal/lpmodel"
	"repro/internal/netmodel"
	"repro/internal/obs"
	"repro/internal/shard"
	"repro/internal/stround"
)

// shardSeedMix decorrelates per-shard randomized rounding. The constant
// differs from Solve's per-retry increment and Session's per-epoch
// increment so (shard, epoch, attempt) seed streams never collide.
const shardSeedMix = 0x94d049bb133111eb

// solveSharded is the decomposed pipeline: partition the instance into
// commodity-region shards, solve one full (LP + rounding + audit) pipeline
// per shard in parallel, reconcile shared reflector capacity, and audit the
// merged design against the full instance. Each per-shard solve is a plain
// monolithic Solve of the shard's sub-instance, so every paper guarantee
// holds per shard; because a shard only ever sees its own capacity
// allocation, the merged design keeps the ×4 fanout bound reflector by
// reflector.
//
// If coordination cannot feed some shard (its LP stays infeasible at the
// round cap), the solve falls back to the monolithic pipeline — which
// either proves the instance itself infeasible or produces a design — and
// marks Result.ShardInfo.Fallback.
//
// A Session's solve passes its carry c: the shard state to start from, and
// the epoch's dirt to route to the shards' Patchers. The solve leaves the
// next epoch's shard state in c (nil after a fallback, whose basis it leaves
// instead). A one-shot solve passes nil and extracts and builds every shard
// afresh.
func solveSharded(in *netmodel.Instance, opts Options, c *carry) (*Result, error) {
	// Clamp to real sinks: a viewer's streams are shard-atomic, so there
	// can never be more shards than viewers.
	k := shard.EffectiveShards(in, opts.Shards)
	sopts := shard.Options{Shards: k, Rounds: opts.ShardRounds}
	// The stage closures read what the carry hands the shards from locals,
	// so the carry itself stays off the heap.
	session := c != nil
	var state *shard.State
	var dirty *netmodel.DirtySet
	if session {
		state, dirty = c.shards, c.dirty
	}

	// localDirty is filled by the shard-partition stage of a Session step:
	// the epoch's global dirty set routed through the stable sink
	// partition, so a churn event confined to one region reaches — and
	// patches — only that region's shard. totals gets one entry per shard
	// there. Both are read by the concurrent per-shard solves after the
	// partition stage completes (a happens-before established by the
	// sequential stage pipeline), and each solve writes only its own shard's
	// totals. A one-shot solve leaves localDirty nil: without a delta flow
	// every shard extracts its sub-instance and builds its LP afresh.
	var localDirty []*netmodel.DirtySet
	var totals []shardTotals
	var ps *pipelineState

	solveFn := func(s int, sub *netmodel.Instance, warm *lp.Basis) (*shard.SolveResult, error) {
		shOpts := opts
		shOpts.Shards = 0
		shOpts.Seed = opts.Seed + (uint64(s)+1)*shardSeedMix
		// The allocation counters are process-global, so per-shard numbers
		// gathered while shards co-run would be noise; the outer tracker
		// already accounts the parallel region as one stage.
		shOpts.StageMemStats = false
		// Nested solves trace under a per-shard child span but record no
		// metrics — the outer Result aggregates their stats, and Solve feeds
		// the registry exactly once from that aggregate.
		co, sp := ps.stageObs.TraceOnly().StartSpan("shard", obs.A("shard", s))
		defer sp.End()
		shOpts.Obs = co
		// The shard's carry: the round's warm basis and, in a Session, the
		// pinned LP shape and the shard's Patcher with its routed dirt.
		shc := &carry{fixedShape: session, basis: warm}
		if localDirty != nil {
			if ps.plan.Patchers[s] == nil {
				ps.plan.Patchers[s] = lpmodel.NewPatcher()
			}
			shc.patcher, shc.dirty = ps.plan.Patchers[s], localDirty[s]
		}
		res, err := solveMono(sub, shOpts, shc)
		if err != nil {
			return nil, err
		}
		totals[s].add(res)
		return &shard.SolveResult{Design: res.Design, Audit: res.Audit, LPCost: res.LPCost, Basis: shc.basis}, nil
	}

	ps = &pipelineState{in: in, opts: opts}
	tracker := newStageTracker(opts.StageMemStats, opts.Obs)
	stages := []Stage{
		{Name: "shard-partition", Run: func(ps *pipelineState) error {
			plan, err := shard.Prepare(in, sopts, state)
			ps.plan = plan
			if err != nil {
				return err
			}
			totals = make([]shardTotals, plan.Shards())
			if session && !opts.rebuildLP {
				// The delta flow guarantees every instance mutation is in
				// the dirty set, so shards it doesn't route to can reuse
				// their cached sub-instance without re-extraction.
				localDirty = routeDirty(dirty, plan.Sinks, in.NumSinks)
			}
			plan.BindSubs(localDirty)
			return nil
		}},
		{Name: "shard-solve", Run: func(ps *pipelineState) error {
			return ps.plan.SolveAll(solveFn)
		}},
		{Name: "shard-coordinate", Run: func(ps *pipelineState) error {
			out, err := ps.plan.Coordinate(solveFn)
			if err != nil {
				return err
			}
			ps.shardOut = out
			ps.design = out.Design
			return nil
		}},
		{Name: "audit", Run: func(ps *pipelineState) error {
			ps.audit = netmodel.AuditDesign(in, ps.design)
			return nil
		}},
	}
	if err := tracker.runAll(stages, ps); err != nil {
		if errors.Is(err, lpmodel.ErrInfeasible) {
			res, ferr := solveMono(in, opts, c)
			if ferr != nil {
				return nil, ferr
			}
			if c != nil {
				c.shards = nil
			}
			res.ShardInfo = &ShardInfo{Shards: k, Fallback: true}
			return res, nil
		}
		return nil, fmt.Errorf("core: %w", err)
	}

	out := ps.shardOut
	if c != nil {
		c.basis, c.shards = nil, out.State
	}
	n := len(totals)
	si := &ShardInfo{
		Shards:             n,
		Rounds:             out.Rounds,
		Resolves:           out.Resolves,
		ConsolidatedBuilds: out.ConsolidatedBuilds,
		PerShardPivots:     make([]int, n),
		PerShardPatches:    make([]int, n),
		PerShardRebuilds:   make([]int, n),
		ExtractionsSkipped: out.ExtractionsSkipped,
		PerShardStats:      make([]lp.SolveStats, n),
	}
	res := &Result{
		Design:       ps.design,
		Audit:        ps.audit,
		PathRounding: usePathRounding(in, opts),
		Stages:       tracker.stats,
		ShardInfo:    si,
	}
	// Sum in shard order, so every float total has the same bits run to run.
	for s, t := range totals {
		res.LPCost += t.last.LPCost
		res.RoundedCost += t.last.RoundedCost
		res.LPVars += t.last.LPVars
		res.LPRows += t.last.LPRows
		res.Retries += t.last.Retries
		res.LPPivots += t.pivots
		res.LPStats.Add(t.stats)
		res.PathLP.Merge(t.pathLP)
		si.PerShardPivots[s] = t.pivots
		si.PerShardPatches[s] = t.patched
		si.PerShardRebuilds[s] = t.rebuilds
		si.PerShardStats[s] = t.stats
		si.LPBuildNS += t.buildNS
		si.LPPatchNS += t.patchNS
	}
	return res, nil
}

// shardTotals accumulates one shard's solver work over the coordination
// rounds of a sharded solve, and keeps its latest successful result — the
// one the coordinator merged — for the solve's LP cost, rounded cost, LP size
// and retries.
type shardTotals struct {
	last              *Result
	pivots            int
	patched, rebuilds int
	buildNS, patchNS  int64
	stats             lp.SolveStats
	pathLP            stround.Totals
}

// add counts one successful solve of the shard.
func (t *shardTotals) add(res *Result) {
	t.last = res
	t.pivots += res.LPPivots
	t.stats.Add(res.LPStats)
	if p := res.Patch; p != nil {
		t.patched += p.Patches()
		if p.Rebuilt {
			t.rebuilds++
		}
	}
	// The shard's lp-build / lp-patch walls: the inner pipeline's model
	// construction, which the outer shard-solve stage timing subsumes.
	t.buildNS += res.StageWall("lp-build").Nanoseconds()
	t.patchNS += res.StageWall("lp-patch").Nanoseconds()
	t.pathLP.Merge(res.PathLP)
}

// routeDirty splits an epoch's global dirty set into per-shard sets keyed
// by the stable sink partition. Sink-dimension entries (thresholds,
// reflector→sink costs and losses) go to the owning shard with the sink
// re-indexed to its local id; reflector- and source-dimension cost/loss
// entries are shared state and broadcast to every shard. Fanout entries are
// dropped entirely: a shard's LP sees its capacity ALLOCATION, not the raw
// fanout, and the per-shard Patcher value-diffs the allocation itself
// (which also covers coordination re-splits the delta flow never sees).
// Shards with nothing routed to them get nil — their sync patches nothing.
func routeDirty(ds *netmodel.DirtySet, sinks [][]int, numSinks int) []*netmodel.DirtySet {
	k := len(sinks)
	out := make([]*netmodel.DirtySet, k)
	if ds.Empty() {
		return out
	}
	owner := make([]int, numSinks)
	local := make([]int, numSinks)
	for s, list := range sinks {
		for c, j := range list {
			owner[j], local[j] = s, c
		}
	}
	at := func(s int) *netmodel.DirtySet {
		if out[s] == nil {
			out[s] = &netmodel.DirtySet{}
		}
		return out[s]
	}
	for _, j := range ds.SinkDemand {
		at(owner[j]).SinkDemand = append(at(owner[j]).SinkDemand, local[j])
	}
	for _, j := range ds.SinkWeight {
		at(owner[j]).SinkWeight = append(at(owner[j]).SinkWeight, local[j])
	}
	for _, a := range ds.RefSinkCost {
		at(owner[a.B]).RefSinkCost = append(at(owner[a.B]).RefSinkCost, netmodel.Arc{A: a.A, B: local[a.B]})
	}
	for _, a := range ds.RefSinkLoss {
		at(owner[a.B]).RefSinkLoss = append(at(owner[a.B]).RefSinkLoss, netmodel.Arc{A: a.A, B: local[a.B]})
	}
	if len(ds.ReflectorCost) > 0 || len(ds.SrcRefCost) > 0 || len(ds.SrcRefLoss) > 0 {
		for s := 0; s < k; s++ {
			t := at(s)
			t.ReflectorCost = append(t.ReflectorCost, ds.ReflectorCost...)
			t.SrcRefCost = append(t.SrcRefCost, ds.SrcRefCost...)
			t.SrcRefLoss = append(t.SrcRefLoss, ds.SrcRefLoss...)
		}
	}
	return out
}
