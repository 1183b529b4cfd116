package main

import "repro/internal/obs"

// spec names one reported metric and its unit. The two lists below are the
// benchmark's contract with BENCHMARK.json (TestMetricNamesMatchBenchmarkJSON
// keeps them in step): an untraced run reports every end-to-end metric, a
// traced run every per-layer one.
type spec struct{ name, unit string }

// endToEnd are the numbers a user of the system sees. Each is defined on
// every workload; see README.md for what each means per workload.
var endToEnd = []spec{
	{"setup_s", "s"},
	{"update_p50_ms", "ms"},
	{"update_tail_ms", "ms"},
	{"cost", "cost/epoch"},
	{"viewer_churn", "viewers/epoch"},
	{"met_frac", "ratio"},
	{"peak_rss_mb", "MB"},
}

// perLayer attributes a run to the repo's modules. A layer's time is its
// share of the steady-state epoch time (of the solve time on overlayd), so a
// layer a workload bypasses reads 0 without posing as a measured time;
// counts are totals over the traced steady state.
var perLayer = []spec{
	{"live.bookkeeping_share", "ratio"},
	{"core.step_share", "ratio"},
	{"core.retries", "count"},
	{"netmodel.audit_share", "ratio"},
	{"lpmodel.build_share", "ratio"},
	{"lpmodel.patch_share", "ratio"},
	{"lpmodel.patched_cells", "count"},
	{"lpmodel.rebuilds", "count"},
	{"lp.solve_share", "ratio"},
	{"lp.pivots", "count"},
	{"lp.pivot_rate", "1/s"},
	{"lp.refactorizations", "count"},
	{"lp.ft_updates", "count"},
	{"lp.ft_adopt_ratio", "ratio"},
	{"lp.devex_resets", "count"},
	{"round.share", "ratio"},
	{"stround.share", "ratio"},
	{"shard.partition_share", "ratio"},
	{"shard.solve_share", "ratio"},
	{"shard.coordinate_share", "ratio"},
	{"shard.rounds", "count"},
	{"shard.resolves", "count"},
	{"shard.extractions_skipped", "count"},
	{"shard.fallbacks", "count"},
	{"shard.skew", "ratio"},
	{"agg.aggregate_share", "ratio"},
	{"agg.disaggregate_share", "ratio"},
	{"agg.units", "count"},
	{"agg.lp_free_epochs", "count"},
	{"agg.weight_changes", "count"},
	{"daemon.solves", "count"},
	{"daemon.edits_per_solve", "ratio"},
	{"daemon.busy_frac", "ratio"},
	{"daemon.ingest_blocked_frac", "ratio"},
	{"trace.overhead", "ratio"},
}

// stageLayers maps pipeline stage spans (and the overlay_stage_wall_seconds
// stage label) to the per-layer share they are reported under.
var stageLayers = map[string]string{
	"aggregate":        "agg.aggregate_share",
	"disaggregate":     "agg.disaggregate_share",
	"lp-build":         "lpmodel.build_share",
	"lp-patch":         "lpmodel.patch_share",
	"lp-solve":         "lp.solve_share",
	"round":            "round.share",
	"integralize":      "stround.share",
	"audit":            "netmodel.audit_share",
	"shard-partition":  "shard.partition_share",
	"shard-solve":      "shard.solve_share",
	"shard-coordinate": "shard.coordinate_share",
}

// counterLayers maps per-layer counts to the canonical counter families the
// program already exports (read from the in-process registry on batch
// workloads and from /metrics on overlayd).
var counterLayers = map[string]string{
	"lp.pivots":                 obs.MLPPivots,
	"lp.refactorizations":       obs.MLPRefactorizations,
	"lp.ft_updates":             obs.MLPFTUpdates,
	"lp.devex_resets":           obs.MLPDevexResets,
	"lpmodel.patched_cells":     obs.MLPPatchedCells,
	"lpmodel.rebuilds":          obs.MLPRebuilds,
	"shard.rounds":              obs.MShardRebidRounds,
	"shard.resolves":            obs.MShardResolves,
	"shard.extractions_skipped": obs.MShardExtractionsSkipped,
	"shard.fallbacks":           obs.MShardFallbacks,
	"agg.lp_free_epochs":        obs.MAggLPFreeEpochs,
	"agg.weight_changes":        obs.MAggWeightChanges,
}

// derive fills the per-layer ratios that follow from other layer numbers:
// pivots per second of lp-solve time and FT adoptions per warm LP solve.
func derive(m map[string]float64, lpSolveMS, lpSolveRuns float64) {
	m["lp.pivot_rate"] = ratio(m["lp.pivots"], lpSolveMS/1000)
	m["lp.ft_adopt_ratio"] = ratio(m["lp.ft_updates"], lpSolveRuns)
}
