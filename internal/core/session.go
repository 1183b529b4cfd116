package core

import (
	"fmt"
	"slices"

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
// A Session also carries the BUILT LP across epochs: a persistent
// lpmodel.Patcher (or one per shard, inside the shard.State) rewrites only
// the coefficients churn touched instead of rebuilding the constraint
// matrix, turning the per-epoch model cost from O(instance) into O(delta).
// The contract is the delta flow: callers that mutate the instance between
// Steps must report the dirty sets through Observe — netmodel.Delta.Apply
// returns them — or the patched LP goes stale. The stickiness bias is
// handled internally: Step diffs the deployed design against the previous
// epoch's and feeds the flipped cost cells into the same dirty stream
// (netmodel.DiffDesigns).
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
	opts.session = true
	s := &Session{Stickiness: stickiness, WarmStart: warmStart, opts: opts}
	if opts.Shards < 2 && !opts.rebuildLP {
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
// set drives the next Step's lp-patch stage and, under Options.Aggregate,
// keeps the persistent aggregation in sync: an unreported mutation would
// leave the patched LP, or the aggregate instance, describing stale state.
// Observing a superset of the real changes is always safe.
func (s *Session) Observe(ds *netmodel.DirtySet) {
	if ds.Empty() {
		return
	}
	if s.pending == nil {
		s.pending = &netmodel.DirtySet{}
	}
	s.pending.Merge(ds)
}

// Step re-optimizes against the instance's current state — the caller
// applies the epoch's deltas to in beforehand and reports them via Observe —
// and deploys the result. The returned churn counts compare against the
// previous epoch's design.
//
// The re-optimization runs on the session's plane: the instance itself, or
// under Options.Aggregate the aggregate instance. There an aggregate stage
// first folds the epoch's dirty sets through the persistent viewer→super-
// sink state, and a disaggregate stage afterwards maps the solved aggregate
// design back to real viewers, sticky to the previous TRUE deployment, and
// audits it on the true instance; the two stage walls bracket the inner
// pipeline's in Result.Stages.
func (s *Session) Step(in *netmodel.Instance) (*ReoptimizeResult, error) {
	dirty := s.pending
	s.pending = nil
	plane, prior := in, s.prior
	var tracker *stageTracker
	var ps *pipelineState
	if s.opts.Aggregate != nil {
		tracker = newStageTracker(s.opts.StageMemStats, s.opts.Obs)
		ps = &pipelineState{in: in, opts: s.opts}
		// The stage closure reads pending, not dirty: capturing dirty, which
		// Step reassigns, would move it to the heap on the flat path too.
		pending := dirty
		var aggDirty *netmodel.DirtySet
		if err := tracker.run(Stage{Name: "aggregate", Run: func(ps *pipelineState) error {
			if s.aggState != nil {
				aggDirty = s.aggState.Sync(ps.in, pending)
				return nil
			}
			// First epoch: Build summarizes the instance's current state
			// directly, so dirt accumulated before it is already folded in.
			st, err := agg.Build(ps.in, *s.opts.Aggregate)
			if err != nil {
				return err
			}
			s.aggState, aggDirty = st, &netmodel.DirtySet{}
			return nil
		}}, ps); err != nil {
			return nil, fmt.Errorf("core: %w", err)
		}
		recordAggShape(s.opts.Obs, s.aggState)
		if o := s.opts.Obs; o != nil && o.Reg != nil {
			o.Counter(obs.MAggWeightChanges).Add(float64(len(aggDirty.SinkWeight)))
		}
		dirty, plane, prior = aggDirty, s.aggState.Agg, s.aggPrior
	}

	res, err := s.reoptimize(plane, prior, dirty)
	if err != nil {
		return nil, err
	}

	if tracker != nil {
		aggDesign := res.Design
		if err := tracker.run(Stage{Name: "disaggregate", Run: func(ps *pipelineState) error {
			res.Design = s.aggState.Disaggregate(ps.in, aggDesign, s.prior)
			res.Audit = netmodel.AuditDesign(ps.in, res.Design)
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
		res.Stages = slices.Concat(tracker.stats[:1], res.Stages, tracker.stats[1:])
		s.aggPrior = aggDesign
	}
	s.prior = res.Design
	return res, nil
}

// reoptimize is the re-optimization every Step runs on its plane, against
// the plane's previous deployment prior: it sets the warm basis, shard
// state and path state of a warm session, patches the LP with the epoch's
// dirt and the stickiness-bias flips, and mixes the per-epoch seed.
func (s *Session) reoptimize(plane *netmodel.Instance, prior *netmodel.Design, dirty *netmodel.DirtySet) (*ReoptimizeResult, error) {
	opts := s.opts
	opts.Aggregate = nil
	// A cold session must not inherit a caller-supplied basis either: cold
	// means every epoch's simplex starts from scratch — including the
	// sharded path's partition and capacity split.
	opts.WarmStart, opts.ShardState = nil, nil
	if s.WarmStart {
		opts.WarmStart, opts.ShardState, opts.pathState = s.basis, s.shardState, s.carriedPath()
	}
	// The stickiness discount moves with the deployed design: cost cells
	// enter or leave the discounted set exactly where the new bias design
	// differs from the previous epoch's. Those flips are instance changes
	// the delta flow never sees, so they join the dirty stream here.
	var bias *netmodel.Design
	if s.Stickiness > 0 {
		bias = prior
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
	if s.opts.Aggregate != nil && s.steps > 0 && dirty.Empty() {
		if o := s.opts.Obs; o != nil && o.Reg != nil {
			o.Counter(obs.MAggLPFreeEpochs).Inc()
		}
	}
	// Per-epoch seed decorrelates the randomized rounding across epochs
	// while keeping the whole timeline a pure function of the base seed.
	// The mixing constant deliberately differs from Solve's per-retry
	// increment so (epoch, attempt) pairs never replay each other's seeds.
	opts.Seed = s.opts.Seed + uint64(s.steps)*0xbf58476d1ce4e5b9
	// With no prior deployment Reoptimize applies no bias; the stickiness
	// still gets range-checked there, so an invalid policy fails on the
	// first step instead of being silently coerced.
	res, err := Reoptimize(plane, prior, s.Stickiness, opts)
	if err != nil {
		return nil, err
	}
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
