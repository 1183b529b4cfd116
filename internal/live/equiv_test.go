package live

// Timeline-level equivalence locks for the persistent basis factorization.
// It changes the solver's pivot trajectory only — every deployed design,
// audited cost, and churn number across the whole scenario library must be
// unchanged. (The incr-vs-rebuild golden tests pin RefactorOnInstall in
// both arms to isolate the Patcher's model equivalence; these tests are the
// complementary lock on the persistence path itself.)

import "testing"

// runLibrary runs every registered scenario for a short horizon under the
// warm+sticky policy with the given solver tweak and returns the reports.
func runLibrary(t *testing.T, tweak func(*Config)) map[string]*RunReport {
	t.Helper()
	out := make(map[string]*RunReport)
	for _, name := range Names() {
		sc, err := Make(name, 7, 12)
		if err != nil {
			t.Fatal(err)
		}
		cfg := Config{Policy: WarmStickyPolicy()}
		if tweak != nil {
			tweak(&cfg)
		}
		rep, err := Run(sc, cfg)
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
func sameDeployments(t *testing.T, name string, a, b *RunReport) {
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
	persist := runLibrary(t, nil)
	pinned := runLibrary(t, func(cfg *Config) { cfg.Solver.RefactorOnInstall = true })
	ft, refacPersist, refacPinned := 0, 0, 0
	for name, a := range persist {
		b := pinned[name]
		sameDeployments(t, name, a, b)
		if b.TotalFTUpdates != 0 {
			t.Fatalf("%s: RefactorOnInstall run adopted %d factorizations", name, b.TotalFTUpdates)
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
