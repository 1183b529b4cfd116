package core_test

// Acceptance locks for the persistent basis factorization, run through the
// live engine against the refactorize-on-install reference arm
// (core.WithRefactorOnInstall). Persistence changes the solver's pivot
// trajectory only: every deployed design, audited cost and churn number
// must be unchanged, while carried factorizations are adopted and
// from-scratch refactorizations drop.

import (
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/live"
	"repro/internal/stats"
)

// runLibrary runs every registered scenario for a short horizon under the
// warm+sticky policy with the given solver options and returns the reports.
func runLibrary(t *testing.T, solver core.Options) map[string]*live.RunReport {
	t.Helper()
	out := make(map[string]*live.RunReport)
	for _, name := range live.Names() {
		sc, err := live.Make(name, 7, 12)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := live.Run(sc, live.Config{Solver: solver, Policy: live.WarmStickyPolicy()})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		out[name] = rep
	}
	return out
}

// sameDeployments requires two timelines to agree exactly on everything the
// operator can observe — per-epoch deployed cost, churn, audit verdicts —
// leaving only solver telemetry (pivots, factorization counters, wall) free.
func sameDeployments(t *testing.T, name string, a, b *live.RunReport) {
	t.Helper()
	if len(a.Epochs) != len(b.Epochs) {
		t.Fatalf("%s: epoch counts differ: %d vs %d", name, len(a.Epochs), len(b.Epochs))
	}
	for e := range a.Epochs {
		ea, eb := a.Epochs[e], b.Epochs[e]
		if ea.TrueCost != eb.TrueCost {
			t.Fatalf("%s epoch %d: deployed cost %.17g != %.17g", name, e, ea.TrueCost, eb.TrueCost)
		}
		if ea.ArcChurn != eb.ArcChurn || ea.ReflectorChurn != eb.ReflectorChurn {
			t.Fatalf("%s epoch %d: churn (%d,%d) != (%d,%d)",
				name, e, ea.ArcChurn, ea.ReflectorChurn, eb.ArcChurn, eb.ReflectorChurn)
		}
		if ea.AuditOK != eb.AuditOK || ea.MetDemand != eb.MetDemand {
			t.Fatalf("%s epoch %d: audit (%v,%d) != (%v,%d)",
				name, e, ea.AuditOK, ea.MetDemand, eb.AuditOK, eb.MetDemand)
		}
	}
	if !a.AllAuditOK || !b.AllAuditOK {
		t.Fatalf("%s: audits failed: %v vs %v", name, a.AllAuditOK, b.AllAuditOK)
	}
}

// TestPersistedFactorizationTimelineEquivalence runs the scenario library
// with the persistent factorization (the default) and with refactorize-on-
// install pinned: the deployed timelines must be identical, and persistence
// must actually fire — warm starts adopting carried eta files (FT updates)
// and strictly fewer from-scratch refactorizations across the library.
func TestPersistedFactorizationTimelineEquivalence(t *testing.T) {
	persist := runLibrary(t, core.Options{})
	pinned := runLibrary(t, core.WithRefactorOnInstall(core.Options{}))
	ft, refacPersist, refacPinned := 0, 0, 0
	for name, a := range persist {
		b := pinned[name]
		sameDeployments(t, name, a, b)
		if b.TotalFTUpdates != 0 {
			t.Fatalf("%s: refactorize-on-install run adopted %d factorizations", name, b.TotalFTUpdates)
		}
		ft += a.TotalFTUpdates
		refacPersist += a.TotalRefactorizations
		refacPinned += b.TotalRefactorizations
	}
	t.Logf("library totals: FT updates %d, refactorizations %d (persisted) vs %d (pinned)",
		ft, refacPersist, refacPinned)
	if ft == 0 {
		t.Fatal("no warm start anywhere in the library adopted a persisted factorization")
	}
	if refacPersist >= refacPinned {
		t.Fatalf("persistence saved no refactorizations: %d vs %d", refacPersist, refacPinned)
	}
}

// TestPersistentSolverAcceptance is the acceptance gate of the persistent
// basis factorization on the 50-epoch flash crowd: against the previous
// solver behavior (refactorize at every warm-start install), the current
// default must (1) adopt carried factorizations across the warm timeline
// and (2) perform strictly fewer from-scratch refactorizations — and the
// warm churn re-solves must stay ≥2x cheaper in pivots than cold re-solves
// of the same timeline under the previous behavior (they are ~14x cheaper;
// warm starts plus persistence are what buy it). The warm re-solves must
// also be faster: the lp-solve stage wall of epochs 1..49, where
// persistence acts, summed over per-epoch minimums of 7 interleaved runs
// per arm. Path rounding and the audit, which both arms share, take most of
// the rest of each epoch, so the whole epoch wall would mostly measure them.
func TestPersistentSolverAcceptance(t *testing.T) {
	sc := live.FlashCrowd(1, 50)
	mk := func(prev bool, policy live.Policy) *live.RunReport {
		t.Helper()
		cfg := live.Config{Policy: policy}
		if prev {
			cfg.Solver = core.WithRefactorOnInstall(cfg.Solver)
		}
		rep, err := live.Run(sc, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	cur := mk(false, live.WarmStickyPolicy())
	prev := mk(true, live.WarmStickyPolicy())
	coldPrev := mk(true, live.ColdPolicy())

	if cur.TotalFTUpdates == 0 {
		t.Fatal("no warm start adopted a persisted factorization across the timeline")
	}
	if prev.TotalFTUpdates != 0 {
		t.Fatal("previous-behavior run adopted factorizations")
	}
	if cur.TotalRefactorizations >= prev.TotalRefactorizations {
		t.Fatalf("persistence saved no refactorizations: %d vs %d",
			cur.TotalRefactorizations, prev.TotalRefactorizations)
	}
	if cur.TotalPivots*2 > coldPrev.TotalPivots {
		t.Fatalf("warm churn re-solves not >=2x cheaper in pivots than previous-solver cold re-solves: %d vs %d",
			cur.TotalPivots, coldPrev.TotalPivots)
	}
	lpSolveWalls := func(prev bool) []int64 {
		rep := mk(prev, live.WarmStickyPolicy())
		walls := make([]int64, 0, len(rep.Epochs)-1)
		for _, er := range rep.Epochs[1:] {
			walls = append(walls, er.StageWallNS["lp-solve"])
		}
		return walls
	}
	var curRuns, prevRuns [][]int64
	for i := 0; i < 7; i++ {
		curRuns = append(curRuns, lpSolveWalls(false))
		prevRuns = append(prevRuns, lpSolveWalls(true))
	}
	curMin, prevMin := stats.MinAcross(curRuns), stats.MinAcross(prevRuns)
	var curNS, prevNS int64
	for e := range curMin {
		curNS += curMin[e]
		prevNS += prevMin[e]
	}
	t.Logf("50-epoch flash crowd: pivots %d vs %d (prev) vs %d (prev cold) | refactorizations %d vs %d | FT updates %d | warm lp-solve wall %v vs %v (%.2fx)",
		cur.TotalPivots, prev.TotalPivots, coldPrev.TotalPivots,
		cur.TotalRefactorizations, prev.TotalRefactorizations, cur.TotalFTUpdates,
		time.Duration(curNS), time.Duration(prevNS), float64(prevNS)/float64(curNS))
	if curNS >= prevNS && !raceEnabled {
		t.Fatalf("warm lp-solve wall did not drop: %v (current) vs %v (previous solver), epochs 1..49, per-epoch minimums of 7 runs",
			time.Duration(curNS), time.Duration(prevNS))
	}

	// The sharded path must additionally skip sub-instance extraction for
	// every post-build epoch (cached sub-instances patched in place).
	shCfg := live.Config{Policy: live.WarmStickyPolicy()}
	shCfg.Solver.Shards = 3
	sh, err := live.Run(sc, shCfg)
	if err != nil {
		t.Fatal(err)
	}
	if sh.TotalExtractionsSkipped == 0 {
		t.Fatal("sharded timeline never reused a cached sub-instance")
	}
}
