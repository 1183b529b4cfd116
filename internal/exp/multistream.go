package exp

import (
	"fmt"
	"math"

	"repro/internal/live"
	"repro/internal/lpmodel"
	"repro/internal/stats"
)

// L6Row is one scenario of L6 and of BENCH_multistream.json: a multi-stream
// scenario run under warm+sticky incremental re-provisioning, its native
// stream and viewer churn accounting, and the copy-split LP check.
type L6Row struct {
	Scenario string `json:"scenario"`
	Epochs   int    `json:"epochs"`
	// Units counts demand units (subscriptions), Viewers the real sinks
	// behind them.
	Units   int `json:"units"`
	Viewers int `json:"viewers"`
	// StreamChurn counts subscription switches; ViewerChurn is the native
	// fractional viewer accounting; Overcount is StreamChurn/ViewerChurn
	// (0 without viewer churn), the factor by which the paper's copy-split
	// WLOG would have exaggerated viewer churn.
	StreamChurn int     `json:"stream_churn"`
	ViewerChurn float64 `json:"viewer_churn"`
	Overcount   float64 `json:"copy_split_overcount"`
	ArcChurn    int     `json:"arc_churn"`
	// Patches / Rebuilds: stream churn must ride the incremental LP path
	// (Rebuilds stays at the epoch-0 build).
	Patches  int `json:"lp_patches"`
	Rebuilds int `json:"lp_rebuilds"`
	// SplitLPEqual re-verifies the WLOG theorem on the base instance: the
	// native LP optimum equals the copy-split optimum.
	SplitLPEqual bool `json:"split_lp_equal"`
	AuditOK      bool `json:"all_audit_ok"`
}

// L6Rows builds the L6 row of each multi-stream scenario, made at seed over
// epochs epochs. On an error it returns the rows of the scenarios before the
// failing one.
func L6Rows(seed uint64, epochs int) ([]L6Row, error) {
	var rows []L6Row
	for _, name := range []string{"streamwave", "streamfailover"} {
		sc, err := live.Make(name, seed, epochs)
		if err != nil {
			return rows, err
		}
		rep, err := live.Run(sc, live.Config{Policy: live.WarmStickyPolicy()})
		if err != nil {
			return rows, fmt.Errorf("%s: %w", name, err)
		}
		row := L6Row{
			Scenario:    name,
			Epochs:      sc.Epochs,
			Units:       sc.Base.NumSinks,
			Viewers:     sc.Base.NumViewers(),
			StreamChurn: rep.TotalStreamChurn,
			ViewerChurn: rep.TotalViewerChurn,
			ArcChurn:    rep.TotalArcChurn,
			Patches:     rep.TotalLPPatches,
			Rebuilds:    rep.TotalLPRebuilds,
			AuditOK:     rep.AllAuditOK,
		}
		if row.ViewerChurn > 0 {
			row.Overcount = float64(row.StreamChurn) / row.ViewerChurn
		}
		nat, err := lpmodel.SolveLP(sc.Base, lpmodel.DefaultOptions(sc.Base))
		if err != nil {
			return rows, fmt.Errorf("%s native LP: %w", name, err)
		}
		split := sc.Base.SplitStreams()
		sp, err := lpmodel.SolveLP(split, lpmodel.DefaultOptions(split))
		if err != nil {
			return rows, fmt.Errorf("%s copy-split LP: %w", name, err)
		}
		row.SplitLPEqual = math.Abs(nat.Cost-sp.Cost) <= 1e-9*(1+math.Abs(sp.Cost))
		rows = append(rows, row)
	}
	return rows, nil
}

// L6MultiStream measures what native multi-stream sinks buy over the
// paper's copy-split WLOG on the stream-churn scenarios: the LP optimum is
// identical (the golden harness locks it; the table re-verifies on each
// base), but the ACCOUNTING differs — the copy-split view charges a full
// viewer leave+join for every stream toggle, while the native model counts
// the real sink fractionally. The overcount column is the factor by which
// the WLOG view would have exaggerated viewer churn, and the patch columns
// show stream churn riding the incremental LP path (one build, the rest
// patches).
func L6MultiStream(cfg Config) *stats.Table {
	t := stats.NewTable("L6 — multi-stream sinks: native vs copy-split accounting",
		"scenario", "epochs", "units/viewers", "Σstream switch", "Σviewer churn", "overcount",
		"Σpatches", "rebuilds", "lp ≡ split", "all audits ok")
	rows, err := L6Rows(cfg.seed(6), liveEpochs(cfg))
	for _, r := range rows {
		overcount := "-"
		if r.ViewerChurn > 0 {
			overcount = fmt.Sprintf("%.1fx", r.Overcount)
		}
		t.AddRowf(r.Scenario, r.Epochs, fmt.Sprintf("%d/%d", r.Units, r.Viewers),
			r.StreamChurn, r.ViewerChurn, overcount,
			r.Patches, r.Rebuilds, yes(r.SplitLPEqual), yes(r.AuditOK))
	}
	if err != nil {
		t.AddNote("%v", err)
	}
	t.AddNote("the copy-split WLOG charges one full viewer per stream toggle; native accounting charges the moved fraction of the real sink")
	t.AddNote("stream subscribe/unsubscribe events reach the LP as in-place covering-row patches — the single rebuild is epoch 0")
	return t
}
