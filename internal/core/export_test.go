package core

import (
	"fmt"

	"repro/internal/lpmodel"
	"repro/internal/netmodel"
)

// WithRefactorOnInstall returns opts with every warm-started LP solve
// refactorizing its basis at install instead of resuming a persisted
// factorization (lp.Options.RefactorOnInstall): the pre-persistence
// reference arm of the persistence acceptance tests.
func WithRefactorOnInstall(opts Options) Options {
	opts.refactorOnInstall = true
	return opts
}

// WithRebuildLP returns opts with a Session building every LP afresh each
// Step — every shard extracted anew and built from scratch — instead of
// patching it from the delta flow: the rebuild reference arm of the
// incremental-vs-rebuild equivalence tests.
func WithRebuildLP(opts Options) Options {
	opts.rebuildLP = true
	return opts
}

// StageNames returns the names of res's pipeline stages in run order.
func StageNames(res *Result) []string {
	names := make([]string, len(res.Stages))
	for i, st := range res.Stages {
		names[i] = st.Name
	}
	return names
}

// CheckPatchers checks every Patcher the session carries against a fresh
// lpmodel.Build of the plane it last synced: the Problems must agree cell
// for cell, and the patched one's CSC cache must be in sync. in is the
// instance of the last Step. The monolithic Patcher's plane is the
// session's plane — in, or the aggregate instance — under the last Step's
// stickiness bias; a shard Patcher's plane is the shard's sub-instance under
// its capacity allocation.
func (s *Session) CheckPatchers(in *netmodel.Instance) error {
	check := func(what string, pt *lpmodel.Patcher, plane *netmodel.Instance) error {
		if pt == nil || pt.Problem() == nil {
			return fmt.Errorf("%s: no synced Patcher", what)
		}
		want, _ := lpmodel.Build(plane, lpOptions(plane, s.opts, true))
		if err := pt.Problem().Diff(want); err != nil {
			return fmt.Errorf("%s: %w", what, err)
		}
		if err := pt.Problem().CheckCSCSync(); err != nil {
			return fmt.Errorf("%s: %w", what, err)
		}
		return nil
	}
	if pt := s.carried.patcher; pt != nil {
		plane := in
		if s.agg.fold != nil {
			plane = s.agg.fold.Agg
		}
		return check("monolithic", pt, biased(plane, s.lastBias, s.stickiness))
	}
	st := s.carried.shards
	if st == nil {
		return fmt.Errorf("the session carries neither a Patcher nor shard state")
	}
	for k, sub := range st.Subs {
		if err := check(fmt.Sprintf("shard %d", k), s.carried.shardLPs[k].patcher, sub); err != nil {
			return err
		}
	}
	return nil
}
