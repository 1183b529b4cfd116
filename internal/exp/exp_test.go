package exp

import (
	"strings"
	"testing"
)

// TestAllExperimentsQuick runs the entire suite in quick mode and asserts
// only that every table renders with at least one data row. Verdicts are
// asserted by the tests below: T1, T12 and F3 by a "NO" match on their
// tables, the L series by TestLSeriesClaimsHold, and the L5 and L6 rows
// field by field.
func TestAllExperimentsQuick(t *testing.T) {
	cfg := QuickConfig()
	for _, e := range All() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			tb := e.Run(cfg)
			if tb == nil {
				t.Fatal("nil table")
			}
			out := tb.String()
			if len(tb.Rows) == 0 {
				t.Fatalf("no rows:\n%s", out)
			}
			t.Logf("\n%s", out)
		})
	}
}

func TestF3ExactValues(t *testing.T) {
	tb := F3IntegralityGap()
	out := tb.String()
	if strings.Contains(out, "NO") {
		t.Fatalf("figure-3 reproduction mismatch:\n%s", out)
	}
	if !strings.Contains(out, "3.5") {
		t.Fatalf("fractional 3.5 missing:\n%s", out)
	}
}

func TestT12BoundsHold(t *testing.T) {
	tb := T12ChernoffTails(QuickConfig())
	if strings.Contains(tb.String(), "NO") {
		t.Fatalf("Chernoff bound violated empirically:\n%s", tb.String())
	}
}

func TestT1GuaranteesHold(t *testing.T) {
	tb := T1EndToEndApprox(QuickConfig())
	if strings.Contains(tb.String(), "NO") {
		t.Fatalf("end-to-end guarantee violated:\n%s", tb.String())
	}
}

// TestLSeriesClaimsHold runs the live-engine experiments and asserts every
// certified claim column reports YES (audits pass, warm speedup floor met,
// churn monotone in stickiness).
func TestLSeriesClaimsHold(t *testing.T) {
	cfg := QuickConfig()
	for _, e := range All() {
		if !strings.HasPrefix(e.ID, "L") {
			continue
		}
		tb := e.Run(cfg)
		if strings.Contains(tb.String(), "NO") {
			t.Fatalf("%s claim violated:\n%s", e.ID, tb.String())
		}
	}
}

// TestL5RowsPatchLikeBuild asserts, at quick size, that every L5 row's
// patched LP equalled a fresh build after every epoch and that the replay
// built the LP once, at epoch 0.
func TestL5RowsPatchLikeBuild(t *testing.T) {
	cfg := QuickConfig()
	rows, err := L5Rows(cfg.seed(2), liveEpochs(cfg))
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) == 0 {
		t.Fatal("no L5 rows")
	}
	for _, r := range rows {
		if !r.Identical || r.Rebuilds != 1 {
			t.Errorf("%s: identical=%v, %d rebuilds; want identical, 1 rebuild", r.Scenario, r.Identical, r.Rebuilds)
		}
	}
}

// TestL6RowsHoldInvariants asserts, at quick size, the multi-stream claims
// of every L6 row: every audit passed, the native LP equals the copy-split
// LP, stream churn rode the patch path (one LP build), and the native viewer
// churn is below the stream churn the copy-split view would charge.
func TestL6RowsHoldInvariants(t *testing.T) {
	cfg := QuickConfig()
	rows, err := L6Rows(cfg.seed(6), liveEpochs(cfg))
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) == 0 {
		t.Fatal("no L6 rows")
	}
	for _, r := range rows {
		if !r.AuditOK || !r.SplitLPEqual || r.Rebuilds != 1 || !(r.ViewerChurn < float64(r.StreamChurn)) {
			t.Errorf("%s: audit ok %v, lp = split %v, %d rebuilds, viewer churn %v vs stream churn %d",
				r.Scenario, r.AuditOK, r.SplitLPEqual, r.Rebuilds, r.ViewerChurn, r.StreamChurn)
		}
	}
}
