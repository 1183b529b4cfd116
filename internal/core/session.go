package core

import (
	"fmt"

	"repro/internal/agg"
	"repro/internal/lp"
	"repro/internal/lpmodel"
	"repro/internal/netmodel"
	"repro/internal/obs"
	"repro/internal/shard"
	"repro/internal/stround"
)

// Session is the re-solve loop of the §1.3 monitoring cycle: it carries the
// deployed design and the last simplex basis from epoch to epoch, so each
// Step is an incremental re-optimization instead of a cold solve. The live
// engine drives one Session per policy across a scenario timeline.
//
// A Session always solves with a fixed-shape LP: one covering row per sink,
// zero-demand sinks included, so the LP shape follows the instance
// dimensions (lpmodel.Options.FixedShape) and the carried basis stays
// warm-start compatible while sinks join and leave. One-shot solves build
// rows for demanding sinks only.
//
// With Options.IncrementalLP the Session additionally carries the BUILT LP
// across epochs: a persistent lpmodel.Patcher (or one per shard, inside the
// shard.State) rewrites only the coefficients churn touched instead of
// rebuilding the constraint matrix, turning the per-epoch model cost from
// O(instance) into O(delta). The contract is the delta flow: callers that
// mutate the instance between Steps must report the dirty sets through
// Observe — netmodel.Delta.Apply returns them — or the patched LP goes
// stale. The stickiness bias is handled internally: Step diffs the deployed
// design against the previous epoch's and feeds the flipped cost cells into
// the same dirty stream (netmodel.DiffDesigns).
type Session struct {
	// Stickiness is the cost discount applied to the deployed design on
	// every Step (see Reoptimize); must be in [0,1).
	Stickiness float64
	// WarmStart re-seeds each Step's simplex from the previous Step's
	// final basis. Off means every epoch solves the LP from scratch.
	WarmStart bool

	opts  Options
	prior *netmodel.Design
	basis *lp.Basis
	// shardState is the sharded-path analogue of basis: the partition,
	// capacity split, per-shard bases, and per-shard patchers of the
	// previous epoch (nil when the session solves monolithically, see
	// Options.Shards).
	shardState *shard.State
	steps      int

	// patcher is the monolithic incremental-rebuild state; pending
	// accumulates dirty sets reported via Observe since the last Step;
	// lastBias remembers which design's arcs were discounted in the
	// previous Step's LP, so the next Step can patch exactly the flips.
	patcher  *lpmodel.Patcher
	pending  *netmodel.DirtySet
	lastBias *netmodel.Design

	// pathState carries the §6.5 path LP from one integralize run to the
	// next (stround.State). Only a warm session keeps one, and only on the
	// monolithic path, aggregated or not: per-shard path LPs start from
	// nothing.
	pathState *stround.State

	// aggState / aggPrior are the aggregation plane (Options.Aggregate):
	// the persistent viewer→super-sink fold, built lazily on the first
	// Step, and the previously deployed AGGREGATE design — the plane the
	// stickiness bias, the warm basis, the shard state and the Patcher all
	// live on. s.prior stays the TRUE design: churn and the deployed view
	// are always reported against real viewers.
	aggState *agg.State
	aggPrior *netmodel.Design
}

// NewSession returns a fresh session; the first Step is a cold solve.
func NewSession(opts Options, stickiness float64, warmStart bool) *Session {
	opts.fixedShape = true
	s := &Session{Stickiness: stickiness, WarmStart: warmStart, opts: opts}
	if opts.IncrementalLP && opts.Shards < 2 {
		s.patcher = lpmodel.NewPatcher()
	}
	return s
}

// Steps returns how many epochs the session has solved.
func (s *Session) Steps() int { return s.steps }

// Deployed returns the currently deployed design (nil before the first Step).
func (s *Session) Deployed() *netmodel.Design { return s.prior }

// SetObserver replaces the observability sink of subsequent Steps. The live
// engine calls it once per epoch with an observer derived from that epoch's
// trace span, so the core stage spans nest under the right epoch.
func (s *Session) SetObserver(o *obs.Observer) { s.opts.Obs = o }

// Observe records a mutation of the instance the session is tracking, as a
// dirty set (typically the return of netmodel.Delta.Apply). The accumulated
// set drives the next Step's lp-patch stage; without IncrementalLP it is a
// no-op. Observing a superset of the real changes is always safe.
// Under Options.Aggregate the dirty sets additionally keep the persistent
// aggregation in sync, so reporting them is required there regardless of
// IncrementalLP — an unreported mutation would leave the aggregate instance
// summarizing stale member state.
func (s *Session) Observe(ds *netmodel.DirtySet) {
	if (!s.opts.IncrementalLP && s.opts.Aggregate == nil) || ds.Empty() {
		return
	}
	if s.pending == nil {
		s.pending = &netmodel.DirtySet{}
	}
	s.pending.Merge(ds)
}

// Step re-optimizes against the instance's current state — the caller
// applies the epoch's deltas to in beforehand (reporting them via Observe
// under IncrementalLP) — and deploys the result. The returned churn counts
// compare against the previous epoch's design.
func (s *Session) Step(in *netmodel.Instance) (*ReoptimizeResult, error) {
	if s.opts.Aggregate != nil {
		return s.stepAggregated(in)
	}
	opts := s.opts
	if s.WarmStart {
		opts.WarmStart = s.basis
		opts.ShardState = s.shardState
		opts.pathState = s.carriedPath()
	} else {
		// A cold session must not inherit a caller-supplied basis either:
		// cold means every epoch's simplex starts from scratch — including
		// the sharded path's partition and capacity split.
		opts.WarmStart = nil
		opts.ShardState = nil
	}
	if opts.IncrementalLP {
		dirty := s.pending
		s.pending = nil
		// The stickiness discount moves with the deployed design: cost
		// cells enter or leave the discounted set exactly where the new
		// bias design differs from the previous epoch's. Those flips are
		// instance changes the delta flow never sees, so they join the
		// dirty stream here.
		var bias *netmodel.Design
		if s.Stickiness > 0 {
			bias = s.prior
		}
		if flips := netmodel.DiffDesigns(s.lastBias, bias); flips != nil {
			opts.Obs.Counter(obs.MBiasFlips).Add(float64(flips.Size()))
			if dirty == nil {
				dirty = &netmodel.DirtySet{}
			}
			dirty.Merge(flips)
		}
		s.lastBias = bias
		opts.patcher = s.patcher
		opts.patchDirty = dirty
	}
	// Per-epoch seed decorrelates the randomized rounding across epochs
	// while keeping the whole timeline a pure function of the base seed.
	// The mixing constant deliberately differs from Solve's per-retry
	// increment so (epoch, attempt) pairs never replay each other's seeds.
	opts.Seed = s.opts.Seed + uint64(s.steps)*0xbf58476d1ce4e5b9
	// With no prior deployment Reoptimize applies no bias; the stickiness
	// still gets range-checked there, so an invalid policy fails on the
	// first step instead of being silently coerced.
	res, err := Reoptimize(in, s.prior, s.Stickiness, opts)
	if err != nil {
		return nil, err
	}
	s.prior = res.Design
	s.basis = res.WarmStartBasis()
	s.shardState = res.ShardState
	s.steps++
	return res, nil
}

// carriedPath returns the session's path-LP state, created on first use, or
// nil on the sharded path.
func (s *Session) carriedPath() *stround.State {
	if s.opts.Shards >= 2 {
		return nil
	}
	if s.pathState == nil {
		s.pathState = &stround.State{}
	}
	return s.pathState
}

// stepAggregated is Step on the aggregation plane (Options.Aggregate): the
// epoch's accumulated dirty sets are folded through the persistent
// viewer→super-sink state, the ordinary re-optimization — stickiness bias,
// warm basis, shard state, incremental Patcher — runs entirely over the
// aggregate instance, and the solved aggregate design is disaggregated back
// to real viewers, sticky to the previous TRUE deployment. Churn and the
// audit are reported against the true instance; the aggregate / disaggregate
// stage walls bracket the inner pipeline's in Result.Stages.
func (s *Session) stepAggregated(in *netmodel.Instance) (*ReoptimizeResult, error) {
	tracker := newStageTracker(s.opts.StageMemStats, s.opts.Obs)
	ps := &pipelineState{in: in, opts: s.opts}

	var aggDirty *netmodel.DirtySet
	if err := tracker.run(Stage{Name: "aggregate", Run: func(*pipelineState) error {
		pending := s.pending
		s.pending = nil
		if s.aggState == nil {
			// First epoch: Build summarizes the instance's current state
			// directly, so dirt accumulated before it is already folded in.
			st, err := agg.Build(in, *s.opts.Aggregate)
			if err != nil {
				return err
			}
			s.aggState = st
			aggDirty = &netmodel.DirtySet{}
			return nil
		}
		aggDirty = s.aggState.Sync(in, pending)
		return nil
	}}, ps); err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	recordAggShape(s.opts.Obs, s.aggState)

	opts := s.opts
	opts.Aggregate = nil
	if s.WarmStart {
		opts.WarmStart = s.basis
		opts.ShardState = s.shardState
		opts.pathState = s.carriedPath()
	} else {
		opts.WarmStart = nil
		opts.ShardState = nil
	}
	lpFree := false
	if opts.IncrementalLP {
		dirty := aggDirty
		var bias *netmodel.Design
		if s.Stickiness > 0 {
			bias = s.aggPrior
		}
		if flips := netmodel.DiffDesigns(s.lastBias, bias); flips != nil {
			opts.Obs.Counter(obs.MBiasFlips).Add(float64(flips.Size()))
			dirty.Merge(flips)
		}
		s.lastBias = bias
		opts.patcher = s.patcher
		opts.patchDirty = dirty
		lpFree = s.steps > 0 && dirty.Empty()
	}
	if o := s.opts.Obs; o != nil && o.Reg != nil {
		o.Counter(obs.MAggWeightChanges).Add(float64(len(aggDirty.SinkWeight)))
		if lpFree {
			o.Counter(obs.MAggLPFreeEpochs).Inc()
		}
	}
	opts.Seed = s.opts.Seed + uint64(s.steps)*0xbf58476d1ce4e5b9

	res, err := Reoptimize(s.aggState.Agg, s.aggPrior, s.Stickiness, opts)
	if err != nil {
		return nil, err
	}
	aggDesign := res.Design

	if err := tracker.run(Stage{Name: "disaggregate", Run: func(*pipelineState) error {
		res.Design = s.aggState.Disaggregate(in, aggDesign, s.prior)
		res.Audit = netmodel.AuditDesign(in, res.Design)
		return nil
	}}, ps); err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}

	// Churn against the previous TRUE deployment (the aggregate plane's
	// churn numbers from Reoptimize describe super-sinks, not viewers).
	var churn netmodel.Churn
	if s.prior != nil {
		churn = netmodel.DesignChurn(in, s.prior, res.Design)
	}
	res.setChurn(churn)

	stages := make([]StageStats, 0, len(res.Stages)+2)
	stages = append(stages, tracker.stats[0])
	stages = append(stages, res.Stages...)
	stages = append(stages, tracker.stats[1])
	res.Stages = stages

	s.prior = res.Design
	s.aggPrior = aggDesign
	s.basis = res.WarmStartBasis()
	s.shardState = res.ShardState
	s.steps++
	return res, nil
}
