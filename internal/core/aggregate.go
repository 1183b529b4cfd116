package core

import (
	"fmt"
	"slices"

	"repro/internal/agg"
	"repro/internal/netmodel"
	"repro/internal/obs"
)

// aggPlane is the aggregation plane of an Options.Aggregate solve: the
// viewer→super-sink fold (internal/agg) and the aggregate design last
// deployed on it — the plane a Session's stickiness bias, warm basis, shard
// state and Patcher all live on. A one-shot solve uses a fresh one; a
// Session keeps its own from Step to Step.
type aggPlane struct {
	fold  *agg.State
	prior *netmodel.Design
}

// planeSolve solves the aggregate instance plane against prior, the design
// last deployed on it (nil: none), with dirty its changes since the previous
// solve. opts has Aggregate cleared.
type planeSolve func(plane *netmodel.Instance, prior *netmodel.Design, dirty *netmodel.DirtySet, opts Options) (*Result, error)

// solve is the aggregation bracket every aggregated solve runs, one-shot
// and Session Step alike. An aggregate stage folds the true instance (in)
// into the plane: a fresh fold builds it from in's current state, so dirt
// reported before it is already summarized; a kept fold syncs dirty, in's
// changes since the previous solve, through it. inner then solves the plane,
// and a disaggregate stage maps the solved aggregate design back to real
// viewers, sticky to prior, the previous true deployment (nil: none), and
// audits it on the true instance. The two stage walls bracket inner's in
// Result.Stages. Under LPOnly there is no design: the result is inner's
// behind the aggregate stage.
func (p *aggPlane) solve(in *netmodel.Instance, opts Options, dirty *netmodel.DirtySet, prior *netmodel.Design, inner planeSolve) (*Result, error) {
	tracker := newStageTracker(opts.StageMemStats, opts.Obs)
	ps := &pipelineState{in: in, opts: opts}
	var planeDirty *netmodel.DirtySet
	if err := tracker.run(Stage{Name: "aggregate", Run: func(ps *pipelineState) error {
		if p.fold != nil {
			planeDirty = p.fold.Sync(ps.in, dirty)
			return nil
		}
		fold, err := agg.Build(ps.in, *opts.Aggregate)
		p.fold, planeDirty = fold, &netmodel.DirtySet{}
		return err
	}}, ps); err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	recordAggShape(opts.Obs, p.fold)

	innerOpts := opts
	innerOpts.Aggregate = nil
	res, err := inner(p.fold.Agg, p.prior, planeDirty, innerOpts)
	if err != nil {
		return nil, err
	}
	if opts.LPOnly {
		res.Stages = slices.Concat(tracker.stats, res.Stages)
		return res, nil
	}

	p.prior = res.Design
	if err := tracker.run(Stage{Name: "disaggregate", Run: func(ps *pipelineState) error {
		res.Design = p.fold.Disaggregate(ps.in, res.Design, prior)
		res.Audit = netmodel.AuditDesign(ps.in, res.Design)
		return nil
	}}, ps); err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	res.Stages = slices.Concat(tracker.stats[:1], res.Stages, tracker.stats[1:])
	return res, nil
}

// recordAggShape publishes the aggregation's fold factor to the registry.
func recordAggShape(o *obs.Observer, st *agg.State) {
	if o == nil || o.Reg == nil {
		return
	}
	o.Gauge(obs.MAggGroups).Set(float64(st.Groups()))
	o.Gauge(obs.MAggUnits).Set(float64(st.Units()))
}
