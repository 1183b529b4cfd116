package core

import (
	"fmt"

	"repro/internal/agg"
	"repro/internal/netmodel"
	"repro/internal/obs"
)

// solveAggregated is the one-shot aggregated pipeline: fold viewers into
// weighted super-sinks (internal/agg), run the ordinary pipeline — sharded
// or monolithic — over the aggregate instance, then disaggregate the design
// back to real viewers and re-audit against the true instance. The
// aggregate and disaggregate stage walls join Result.Stages around the
// inner pipeline's. Session epochs use the persistent-state variant in
// session.go instead; this path rebuilds the aggregation from scratch.
func solveAggregated(in *netmodel.Instance, opts Options) (*Result, error) {
	tracker := newStageTracker(opts.StageMemStats, opts.Obs)
	ps := &pipelineState{in: in, opts: opts}

	var st *agg.State
	if err := tracker.run(Stage{Name: "aggregate", Run: func(*pipelineState) error {
		var err error
		st, err = agg.Build(in, *opts.Aggregate)
		return err
	}}, ps); err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	recordAggShape(opts.Obs, st)

	inner := opts
	inner.Aggregate = nil
	var res *Result
	var err error
	if inner.Shards >= 2 && st.Agg.NumViewers() >= 2 && !inner.LPOnly {
		res, err = solveSharded(st.Agg, inner, nil)
	} else {
		res, err = solveMono(st.Agg, inner, nil)
	}
	if err != nil {
		return nil, err
	}
	if opts.LPOnly {
		res.Stages = append(tracker.stats, res.Stages...)
		return res, nil
	}

	if err := tracker.run(Stage{Name: "disaggregate", Run: func(*pipelineState) error {
		res.Design = st.Disaggregate(in, res.Design, nil)
		res.Audit = netmodel.AuditDesign(in, res.Design)
		return nil
	}}, ps); err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}

	stages := make([]StageStats, 0, len(res.Stages)+2)
	stages = append(stages, tracker.stats[0])
	stages = append(stages, res.Stages...)
	stages = append(stages, tracker.stats[1])
	res.Stages = stages
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
