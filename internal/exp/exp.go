// Package exp is the experiment harness: one function per table/figure in
// EXPERIMENTS.md, each returning a stats.Table with the measured values next
// to the paper's claimed bound. The paper itself (a SPAA'03 theory paper)
// has no measurement section — its §7 defers implementation to future work —
// so this suite validates every quantitative claim (Lemmas 4.1/4.3/4.6, the
// §5 end-to-end factor-4 guarantee, the §6.5 extension bounds, the Figure-3
// integrality gap, §5.1 running time) and reproduces the §1 Akamai
// deployment scenarios that motivated the system.
//
// Both cmd/overlaybench and the repository-root benchmarks run these
// functions; EXPERIMENTS.md records their output.
package exp

import "repro/internal/stats"

// Config scales the experiment suite.
type Config struct {
	// Trials per cell (default 10; Quick uses fewer).
	Trials int
	// Quick shrinks instance sizes and trial counts so the whole suite
	// finishes in seconds (used by `go test -bench` smoke runs).
	Quick bool
}

// DefaultConfig returns the full-size configuration.
func DefaultConfig() Config {
	return Config{Trials: 10}
}

// QuickConfig returns a configuration that runs the suite in seconds.
func QuickConfig() Config {
	return Config{Trials: 3, Quick: true}
}

func (c Config) trials(full int) int {
	if c.Trials > 0 {
		full = c.Trials
	}
	if c.Quick && full > 3 {
		full = 3
	}
	return full
}

// seed returns the i-th seed of the suite's fixed sequence.
func (c Config) seed(i int) uint64 {
	return 1 + uint64(i)*1000003
}

// Experiment couples an ID to its runner, for the `all` driver.
type Experiment struct {
	ID   string
	Name string
	Run  func(Config) *stats.Table
}

// All lists every experiment in EXPERIMENTS.md order.
func All() []Experiment {
	return []Experiment{
		{"T1", "End-to-end approximation vs exact OPT", T1EndToEndApprox},
		{"T2", "Randomized-rounding guarantees (Lemmas 4.1/4.3/4.6)", T2RoundingGuarantees},
		{"T3", "The c / δ trade-off", T3ParameterTradeoff},
		{"F3", "Figure 3 integrality gap", func(c Config) *stats.Table { return F3IntegralityGap() }},
		{"T4", "Color constraints via §6.5 path rounding", T4ColorConstraints},
		{"T5", "Loss model: analytic vs Monte-Carlo vs packet simulation", T5LossModel},
		{"T6", "ISP outage drill: color-diverse vs unconstrained designs", T6ISPFailure},
		{"T7", "Running time scaling (§5.1: the LP dominates)", T7Scalability},
		{"T8", "Baselines: greedy / random / LP-rounding", T8Baselines},
		{"T9", "MacWorld'02 live-event scenario (§1)", T9LiveEvent},
		{"T10", "§6.1 heterogeneous stream bandwidths", T10Bandwidth},
		{"T11", "§6.3 reflector→sink capacities", T11EdgeCapacities},
		{"T12", "Hoeffding–Chernoff tails (Thm 4.2 / App. A)", T12ChernoffTails},
		{"T13", "§1.4 single-tree distribution vs multi-path overlay", T13MulticastTree},
		{"T14", "§6.2 ingest caps: realized vs O(log n) violation", T14IngestCaps},
		{"T15", "Correlated ISP outages vs independent prediction", T15CorrelatedOutages},
		{"A1", "Ablation: constraint (4) cutting plane on/off", A1CuttingPlaneAblation},
		{"A2", "Ablation: §5 GAP flow vs §6.5 path rounding", A2GapVsPathRounding},
		{"A3", "Coverage repair: W/4 guarantee → full demand", A3RepairCost},
		{"S1", "Sharded vs monolithic solves: cost/wall/pivots", S1ShardedVsMonolithic},
		{"S2", "Sharded solve scaling with sink count", S2ScalingWithSinks},
		{"S3", "Shard coordination under capacity scarcity", S3CoordinationUnderScarcity},
		{"L1", "Live: flash crowd, cold vs warm+sticky re-solves", L1FlashCrowd},
		{"L2", "Live: diurnal wave, stickiness vs churn", L2DiurnalStickiness},
		{"L3", "Live: rolling ISP outages, availability", L3RollingISPOutage},
		{"L4", "Live: backbone failure & repricing, cost tracking", L4BackboneAndRepricing},
		{"L5", "Live: incremental LP rebuild, patch vs rebuild wall", L5IncrementalRebuild},
		{"L6", "Live: multi-stream sinks, native vs copy-split accounting", L6MultiStream},
	}
}
