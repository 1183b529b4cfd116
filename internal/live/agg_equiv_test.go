package live

// Timeline-level acceptance lock for hierarchical viewer aggregation
// (internal/agg): running the whole scenario library with the solver folding
// viewers into weighted super-sinks must keep every epoch's design within
// the paper's guarantee on the TRUE instance, and the total deployed cost of
// each timeline within 5% of the flat (unaggregated) run.

import (
	"testing"

	"repro/internal/agg"
)

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

func TestAggregatedTimelineEquivalence(t *testing.T) {
	flat := runLibrary(t, nil)
	folded := runLibrary(t, func(cfg *Config) { cfg.Solver.Aggregate = &agg.Config{} })
	for name, a := range flat {
		b := folded[name]
		if !b.AllAuditOK {
			t.Fatalf("%s: aggregated run missed the paper guarantee", name)
		}
		if len(a.Epochs) != len(b.Epochs) {
			t.Fatalf("%s: epoch counts differ: %d vs %d", name, len(a.Epochs), len(b.Epochs))
		}
		ratio := b.TotalTrueCost / a.TotalTrueCost
		t.Logf("%s: cost flat %.2f folded %.2f ratio %.4f (lp-free churn absorbed: %d patches vs %d)",
			name, a.TotalTrueCost, b.TotalTrueCost, ratio, b.TotalLPPatches, a.TotalLPPatches)
		if ratio > 1.05 {
			t.Fatalf("%s: aggregated timeline cost ratio %.4f exceeds 1.05", name, ratio)
		}
		// Same churn accounting semantics: the aggregated run reports true
		// fractional viewer churn, so a timeline with viewer movement must
		// not report zero.
		if a.TotalViewerChurn > 0 && b.TotalViewerChurn == 0 {
			t.Fatalf("%s: aggregated run lost viewer-churn accounting", name)
		}
	}
}
