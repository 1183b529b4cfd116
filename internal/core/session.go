package core

import (
	"slices"

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
// Its LP is the one every solve builds (lpmodel.Build): one covering row
// per sink, zero-demand sinks included, so the LP shape follows the
// instance dimensions and the carried basis stays warm-start compatible
// while sinks join and leave.
//
// A Session also carries the BUILT LP across epochs: a persistent
// lpmodel.Patcher (or one per shard, in the shard's carry) rewrites only
// the coefficients churn touched instead of rebuilding the constraint
// matrix, turning the per-epoch model cost from O(instance) into O(delta).
// The contract is the delta flow: callers that mutate the instance between
// Steps must report the dirty sets through Observe — netmodel.Delta.Apply
// returns them — or the patched LP goes stale. The stickiness bias is
// handled internally: Step diffs the deployed design against the previous
// epoch's and feeds the flipped cost cells into the same dirty stream
// (netmodel.DiffDesigns).
type Session struct {
	// stickiness is the cost discount applied to the deployed design on
	// every Step (see Reoptimize); must be in [0,1).
	stickiness float64
	// warm re-seeds each Step's simplex from the previous Step's final
	// basis. Off means every epoch solves the LP from scratch.
	warm bool

	opts  Options
	prior *netmodel.Design
	steps int

	// carried is the state the session threads from Step to Step: the
	// basis, shard state and per-shard carries the last solve left, the
	// monolithic Patcher (nil on the sharded path, whose Patchers live in
	// the per-shard carries), and in a warm session the §6.5 path LP, as
	// every per-shard carry of a warm session keeps its own. Its dirt is
	// always nil: each Step hands its solve a copy with the epoch's dirt.
	carried carry

	// pending accumulates dirty sets reported via Observe since the last
	// Step; lastBias remembers which design's arcs were discounted in the
	// previous Step's LP, so the next Step can patch exactly the flips.
	pending  *netmodel.DirtySet
	lastBias *netmodel.Design

	// agg is the aggregation plane (Options.Aggregate): the persistent
	// viewer→super-sink fold, built on the first Step, and the previously
	// deployed AGGREGATE design. s.prior stays the TRUE design: churn and
	// the deployed view are always reported against real viewers.
	agg aggPlane
}

// NewSession returns a fresh session; the first Step is a cold solve.
func NewSession(opts Options, stickiness float64, warmStart bool) *Session {
	s := &Session{stickiness: stickiness, warm: warmStart, opts: opts}
	// Sharded, each shard LP's carry holds its Patcher; a monolithic one
	// would miss the sharded epochs' dirt, so the fallback builds afresh.
	if opts.Shards < 2 && !opts.rebuildLP {
		s.carried.patcher = lpmodel.NewPatcher()
	}
	if warmStart {
		s.carried.path = &stround.State{}
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
// and deploys the result. The returned audit is of the true instance, and
// the churn counts compare against the previous epoch's design.
//
// The re-optimization runs on the session's plane: the instance itself, or
// under Options.Aggregate the aggregate instance, inside the aggregation
// bracket every aggregated solve runs (aggPlane.solve). Its aggregate stage
// folds the epoch's dirty sets through the persistent viewer→super-sink
// state, and its disaggregate stage maps the solved aggregate design back to
// real viewers, sticky to the previous TRUE deployment, and audits it.
func (s *Session) Step(in *netmodel.Instance) (*ReoptimizeResult, error) {
	dirty := s.pending
	s.pending = nil
	var res *Result
	var err error
	if s.opts.Aggregate != nil {
		res, err = s.agg.solve(in, s.opts, dirty, s.prior, s.reoptimize)
	} else {
		res, err = s.reoptimize(in, s.prior, dirty, s.opts)
	}
	if err != nil {
		return nil, err
	}
	out := reoptimized(in, s.prior, res)
	s.prior = res.Design
	return out, nil
}

// reoptimize is the re-optimization every Step runs on its plane, against
// the plane's previous deployment prior. It hands the solve a copy of the
// session's carry with the epoch's dirt and the stickiness-bias flips (a
// cold session withholds the warm state), mixes the per-epoch seed, and
// keeps the basis and shard state the solve leaves for the next Step. opts
// is the session's, with Aggregate cleared on the aggregate plane.
func (s *Session) reoptimize(plane *netmodel.Instance, prior *netmodel.Design, dirty *netmodel.DirtySet, opts Options) (*Result, error) {
	if s.opts.Aggregate != nil {
		opts.Obs.Counter(obs.MAggWeightChanges).Add(float64(len(dirty.SinkWeight)))
	}
	// The stickiness discount moves with the deployed design: cost cells
	// enter or leave the discounted set exactly where the new bias design
	// differs from the previous epoch's. Those flips are instance changes
	// the delta flow never sees, so they join the dirty stream here.
	var bias *netmodel.Design
	if s.stickiness > 0 {
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
	c := s.carried
	c.dirty = dirty
	if !s.warm {
		// Cold means every epoch's simplex starts from scratch, the sharded
		// path's capacity split included: a cold session withholds the
		// basis, every shard LP's basis and the split, which Prepare then
		// recomputes from affinity. It keeps the LP structure — the
		// partition, the cached sub-instances and the shards' Patchers — as
		// it keeps its monolithic Patcher.
		c.basis = nil
		if st := c.shards; st != nil {
			c.shards = &shard.State{S: st.S, R: st.R, D: st.D, Sinks: st.Sinks, Subs: st.Subs}
			c.shardLPs = slices.Clone(c.shardLPs)
			for i := range c.shardLPs {
				c.shardLPs[i].basis = nil
			}
		}
	}
	if s.opts.Aggregate != nil && s.steps > 0 && dirty.Empty() {
		opts.Obs.Counter(obs.MAggLPFreeEpochs).Inc()
	}
	// Per-epoch seed decorrelates the randomized rounding across epochs
	// while keeping the whole timeline a pure function of the base seed.
	// The mixing constant deliberately differs from Solve's per-retry
	// increment so (epoch, attempt) pairs never replay each other's seeds.
	opts.Seed = s.opts.Seed + uint64(s.steps)*0xbf58476d1ce4e5b9
	// With no prior deployment reoptimize applies no bias; the stickiness
	// still gets range-checked there, so an invalid policy fails on the
	// first step instead of being silently coerced.
	res, onClone, err := reoptimize(plane, prior, s.stickiness, opts, &c)
	if err != nil {
		return nil, err
	}
	if onClone && s.opts.Aggregate == nil {
		// Re-audit against the true instance (costs were biased); the
		// aggregate plane's true audit is the disaggregate stage's.
		res.Audit = netmodel.AuditDesign(plane, res.Design)
	}
	s.carried.basis, s.carried.shards, s.carried.shardLPs = c.basis, c.shards, c.shardLPs
	s.steps++
	return res, nil
}
