package obs

// The canonical metric naming scheme. Every telemetry number the engine
// produces — stage walls, solver factorization events, shard coordination,
// churn, SLOs — is registered here under one prefix (overlay_) with
// Prometheus-conventional suffixes (_total for counters, _seconds for
// durations). The README's metric reference table is generated from these
// help strings; CI's obs-smoke job greps /metrics for the names.
const (
	// Epoch loop (internal/live).
	MEpochsTotal     = "overlay_epochs_total"
	MEpoch           = "overlay_epoch"
	MEpochWall       = "overlay_epoch_wall_seconds"
	MEpochCost       = "overlay_epoch_cost"
	MActiveSinks     = "overlay_active_sinks"
	MActiveViewers   = "overlay_active_viewers"
	MBuiltReflectors = "overlay_built_reflectors"
	MAuditFailures   = "overlay_audit_failures_total"

	// Churn against the previous epoch's deployment.
	MChurnArcs       = "overlay_churn_arcs_total"
	MChurnReflectors = "overlay_churn_reflectors_total"
	MChurnStreams    = "overlay_churn_streams_total"
	MChurnViewers    = "overlay_churn_viewers_total"

	// Availability SLO (windowed; see live.Config.SLOWindow/SLOTarget).
	MSLOWindowAvailability = "overlay_slo_window_availability"
	MSLOBreaches           = "overlay_slo_breaches_total"
	MRegionAvailability    = "overlay_region_slo_availability"
	MStreamAvailability    = "overlay_stream_slo_availability"

	// Solve pipeline (internal/core). Stage walls carry a stage label with
	// the pipeline stage name (lp-build, lp-patch, lp-solve, round,
	// integralize, repair, audit, shard-partition, shard-solve,
	// shard-coordinate).
	MSolvesTotal = "overlay_solves_total"
	MStageWall   = "overlay_stage_wall_seconds"
	MStageRuns   = "overlay_stage_runs_total"
	MLPPivots    = "overlay_lp_pivots_total"

	// Simplex factorization events (internal/lp, the PR-6 counters).
	MLPRefactorizations = "overlay_lp_refactorizations_total"
	MLPFTUpdates        = "overlay_lp_ft_updates_total"
	MLPDevexResets      = "overlay_lp_devex_resets_total"
	MLPWarmFallbacks    = "overlay_lp_warm_fallbacks_total"
	MLPBasisRepairs     = "overlay_lp_basis_repairs_total"

	// The §6.5 path LP (internal/stround), counted apart from the main LP
	// above. Path-LP solves carry a start label: resumed, remapped or cold.
	MPathLPPivots        = "overlay_path_lp_pivots_total"
	MPathLPSolves        = "overlay_path_lp_solves_total"
	MPathLPWarmFallbacks = "overlay_path_lp_warm_fallbacks_total"

	// Incremental LP rebuild (lpmodel.Patcher).
	MLPPatchedCells = "overlay_lp_patched_cells_total"
	MLPRebuilds     = "overlay_lp_rebuilds_total"

	// Sharded solves (internal/shard).
	MShardExtractionsSkipped = "overlay_shard_extractions_skipped_total"
	MShardRebidRounds        = "overlay_shard_rebid_rounds_total"
	MShardResolves           = "overlay_shard_resolves_total"
	MShardFallbacks          = "overlay_shard_fallbacks_total"

	// Session re-optimization (core.Session).
	MBiasFlips = "overlay_session_bias_flips_total"

	// Hierarchical viewer aggregation (internal/agg).
	MAggGroups        = "overlay_agg_groups"
	MAggUnits         = "overlay_agg_units"
	MAggLPFreeEpochs  = "overlay_agg_lp_free_epochs_total"
	MAggWeightChanges = "overlay_agg_weight_changes_total"
)

// canonicalFamilies drives both Canonical and the README reference table.
var canonicalFamilies = []struct {
	Name string
	Kind Kind
	Help string
}{
	{MEpochsTotal, KindCounter, "Epochs the live engine has solved."},
	{MEpoch, KindGauge, "Current epoch index of the running timeline."},
	{MEpochWall, KindHistogram, "Wall time of one epoch's re-provisioning solve."},
	{MEpochCost, KindGauge, "Deployed design cost on the true (unbiased) instance."},
	{MActiveSinks, KindGauge, "Demand units (subscriptions) with positive thresholds."},
	{MActiveViewers, KindGauge, "Real sinks (viewers) with at least one active subscription."},
	{MBuiltReflectors, KindGauge, "Reflectors in service this epoch."},
	{MAuditFailures, KindCounter, "Epochs whose design missed the paper's guarantee."},
	{MChurnArcs, KindCounter, "Service arcs changed vs the previous deployment."},
	{MChurnReflectors, KindCounter, "Reflector build flips vs the previous deployment."},
	{MChurnStreams, KindCounter, "Subscriptions whose serving reflector set changed."},
	{MChurnViewers, KindCounter, "Fractional viewer churn (each viewer counts the fraction of its streams that moved)."},
	{MSLOWindowAvailability, KindGauge, "Fraction of the trailing SLO window's epochs that met the availability target."},
	{MSLOBreaches, KindCounter, "Epochs that missed the availability target."},
	{MRegionAvailability, KindGauge, "Per-region fraction of active sinks meeting their reliability threshold."},
	{MStreamAvailability, KindGauge, "Per-stream fraction of active sinks meeting their reliability threshold."},
	{MSolvesTotal, KindCounter, "Full pipeline solves (one per epoch, plus one-shot CLI solves)."},
	{MStageWall, KindHistogram, "Wall time per pipeline stage run, labeled by stage."},
	{MStageRuns, KindCounter, "Pipeline stage executions, labeled by stage."},
	{MLPPivots, KindCounter, "Simplex pivots (all shards, all coordination rounds)."},
	{MLPRefactorizations, KindCounter, "From-scratch basis factorizations."},
	{MLPFTUpdates, KindCounter, "Warm starts that adopted a persisted factorization (Forrest-Tomlin resume)."},
	{MLPDevexResets, KindCounter, "Devex reference-framework resets; always 0, as the solver prices by Dantzig's rule."},
	{MLPWarmFallbacks, KindCounter, "Warm starts abandoned for the solver's one cold attempt."},
	{MLPBasisRepairs, KindCounter, "Dependent basic columns a warm-start install swapped for row slacks."},
	{MPathLPPivots, KindCounter, "Simplex pivots of the §6.5 path LP, both stages (summed over shards on sharded solves)."},
	{MPathLPSolves, KindCounter, "Path-LP calls by how they started: resumed in place, remapped through a key map, or cold."},
	{MPathLPWarmFallbacks, KindCounter, "Path-LP warm starts abandoned for a cold re-solve."},
	{MLPPatchedCells, KindCounter, "LP matrix/rhs/objective cells rewritten in place by the incremental rebuild."},
	{MLPRebuilds, KindCounter, "Full LP builds the incremental rebuild fell back to."},
	{MShardExtractionsSkipped, KindCounter, "Shards that reused their cached sub-instance (empty routed dirty set)."},
	{MShardRebidRounds, KindCounter, "Capacity re-bidding coordination rounds."},
	{MShardResolves, KindCounter, "Shard re-solves triggered by coordination."},
	{MShardFallbacks, KindCounter, "Sharded solves that fell back to the monolithic pipeline."},
	{MBiasFlips, KindCounter, "Stickiness-bias cost cells flipped by deployment changes between epochs."},
	{MAggGroups, KindGauge, "Aggregates (weighted super-sinks) the LP solves over."},
	{MAggUnits, KindGauge, "Aggregate demand units — the LP's sink axis under aggregation."},
	{MAggLPFreeEpochs, KindCounter, "Epochs whose churn was weight-neutral inside every aggregate: no LP build, patch, or pivot."},
	{MAggWeightChanges, KindCounter, "Aggregate units whose member-subscription weight changed."},
}

// Canonical pre-registers every canonical metric family with its help text,
// so a freshly started process exposes the full scheme at value 0 instead
// of families popping into existence as code paths first run. Histogram
// families get DefaultDurationBuckets. Idempotent.
func Canonical(r *Registry) {
	if r == nil {
		return
	}
	for _, f := range canonicalFamilies {
		r.Describe(f.Name, f.Kind, f.Help, nil)
		// Instantiate unlabeled families at zero; labeled families
		// (stage, region) materialize with their first labeled series.
		switch f.Name {
		case MStageWall, MStageRuns, MRegionAvailability, MStreamAvailability, MPathLPSolves:
		default:
			switch f.Kind {
			case KindCounter:
				r.Counter(f.Name)
			case KindGauge:
				r.Gauge(f.Name)
			case KindHistogram:
				r.Histogram(f.Name, nil)
			}
		}
	}
}
