package core

import (
	"time"

	"repro/internal/lp"
	"repro/internal/lpmodel"
	"repro/internal/netmodel"
	"repro/internal/obs"
	"repro/internal/round"
	"repro/internal/shard"
	"repro/internal/stround"
)

// A Stage is one named step of the solve pipeline. Stages are the unit of
// instrumentation: every stage execution is timed and its allocations
// counted, and repeated executions of the same stage (the randomized tail
// of the pipeline re-runs on audit retries) aggregate under one name.
// Future pipeline steps — new rounders, repair passes — plug in here
// instead of adding ad-hoc timing code.
type Stage struct {
	Name string
	Run  func(*pipelineState) error
}

// StageStats is the aggregated instrumentation of one named stage.
type StageStats struct {
	Name string
	// Wall is the total wall-clock time across all runs of the stage.
	Wall time.Duration
	// AllocBytes and Allocs count heap allocation across all runs,
	// gathered from runtime/metrics allocation-total deltas (obs.ReadAllocs)
	// when Options.StageMemStats is set; zero otherwise. The totals are
	// process-global, so they are exact in the common one-solve-at-a-time
	// case and attribute co-running goroutines' allocations to the current
	// stage otherwise — see Options.StageMemStats.
	AllocBytes uint64
	Allocs     uint64
	// Runs counts how many times the stage executed (tail stages run once
	// per audit retry).
	Runs int
}

// pipelineState is the blackboard the stages read and write. It carries
// the instance, options and carried state in, and accumulates every
// intermediate product of the §2–§6.5 algorithm until the Result can be
// assembled.
type pipelineState struct {
	in    *netmodel.Instance
	opts  Options
	carry carry

	prob *lp.Problem
	vm   *lpmodel.VarMap
	frac *lpmodel.FracSolution
	// lpPatches and lpRebuilds count what a carried Patcher did in the
	// lp-patch/lp-build stage: the LP cells it rewrote, and 1 when it fell
	// back to a full build (both 0 on the plain build path).
	lpPatches, lpRebuilds int

	// per-attempt products
	seed    uint64
	rounded *round.Rounded
	design  *netmodel.Design
	stRes   *stround.Result
	pathLP  stround.Totals // summed over attempts
	usePath bool
	audit   netmodel.Audit

	// sharded-pipeline products
	plan     *shard.Plan
	shardOut *shard.Outcome

	// stageObs / stageSpan are set by the tracker just before each stage
	// runs: the observer derived for the stage's span (the parent for
	// per-shard child spans) and the span itself (the anchor for lp solver
	// events). Both nil with tracing off.
	stageObs  *obs.Observer
	stageSpan *obs.Span
}

// stageTracker aggregates StageStats by name, preserving first-run order.
// Allocation accounting is opt-in (Options.StageMemStats) and reads the
// runtime/metrics allocation totals — cheap (no stop-the-world), but
// process-global, so it stays off inside concurrent per-shard solves. With
// an observer attached, every stage run additionally opens a trace span and
// lands in the stage-wall histogram and run counter.
type stageTracker struct {
	stats []StageStats
	index map[string]int
	mem   bool
	obs   *obs.Observer
}

func newStageTracker(mem bool, o *obs.Observer) *stageTracker {
	return &stageTracker{index: make(map[string]int), mem: mem, obs: o}
}

// run executes one stage, accounting wall time and (optionally)
// allocations.
func (t *stageTracker) run(st Stage, ps *pipelineState) error {
	var beforeBytes, beforeObjs uint64
	if t.mem {
		beforeBytes, beforeObjs = obs.ReadAllocs()
	}
	ps.stageObs, ps.stageSpan = t.obs.StartSpan(st.Name)
	start := time.Now()
	err := st.Run(ps)
	wall := time.Since(start)
	ps.stageSpan.End()
	ps.stageObs, ps.stageSpan = nil, nil

	i, ok := t.index[st.Name]
	if !ok {
		i = len(t.stats)
		t.index[st.Name] = i
		t.stats = append(t.stats, StageStats{Name: st.Name})
	}
	s := &t.stats[i]
	s.Wall += wall
	if t.mem {
		afterBytes, afterObjs := obs.ReadAllocs()
		s.AllocBytes += afterBytes - beforeBytes
		s.Allocs += afterObjs - beforeObjs
	}
	s.Runs++
	if t.obs.Enabled() {
		t.obs.Histogram(obs.MStageWall, obs.L("stage", st.Name)).Observe(wall.Seconds())
		t.obs.Counter(obs.MStageRuns, obs.L("stage", st.Name)).Inc()
	}
	return err
}

// runAll executes a stage sequence in order, stopping at the first error.
func (t *stageTracker) runAll(stages []Stage, ps *pipelineState) error {
	for _, st := range stages {
		if err := t.run(st, ps); err != nil {
			return err
		}
	}
	return nil
}
