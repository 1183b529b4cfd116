// Package overlay is the public API of this repository: a complete
// implementation of the overlay multicast network design system of
//
//	K. Andreev, B. M. Maggs, A. Meyerson, R. K. Sitaraman.
//	"Designing Overlay Multicast Networks For Streaming", SPAA 2003.
//
// The library designs three-stage overlay networks (sources → reflectors →
// edgeserver sinks, Figure 1 of the paper) that deliver live streams at
// minimum bandwidth cost subject to reflector fanout limits and per-sink
// reliability demands, using the paper's LP-rounding approximation
// algorithm: exact LP relaxation, §3 randomized rounding, and either the §5
// modified-GAP flow rounding or the §6.5 Srinivasan–Teo-style path rounding
// when ISP color constraints (§6.4) or reflector–sink capacities (§6.3) are
// present.
//
// The LP relaxation is solved exactly by a sparse, warm-startable revised
// simplex (internal/lp): the constraint matrix is held in compressed
// column form, the basis inverse as an eta file with periodic
// refactorization, and the epochs of a live re-solve loop (core.Session,
// which carries the basis) or branch-and-bound children (ExactDesign)
// restart from the previous basis instead of from scratch; a one-shot
// Reoptimize solves cold. Solve itself runs as an instrumented staged
// pipeline — LP build/solve, rounding, integralization, repair, audit —
// with per-stage wall time and allocation counters in SolveResult.Stages.
//
// At scale, set SolveOptions.Shards ≥ 2: the instance is partitioned into
// commodity-region shards solved as independent small LPs in parallel,
// with an iterative coordination pass reconciling shared reflector fanout
// capacity (internal/shard). The sharded path keeps the paper's audit
// guarantee and, past a few hundred sinks, beats the monolithic solve by
// orders of magnitude — at 2000 sinks the monolithic simplex no longer
// terminates while 8-shard solves finish in seconds (BENCH_shard.json).
//
// A typical use:
//
//	in := overlay.NewClusteredInstance(overlay.DefaultClusteredConfig(2, 3, 2, 8), 1)
//	res, err := overlay.Solve(in, overlay.DefaultSolveOptions(42))
//	if err != nil { ... }
//	fmt.Println(res.Audit)                     // cost + guarantee audit
//	sim := overlay.Simulate(in, res.Design, overlay.DefaultSimConfig(7))
//	fmt.Println(sim.MeanPostLoss)              // packet-level validation
//
// Subsystems (instance model, LP solver, rounding stages, packet simulator,
// baselines, exact IP solver) live under internal/ and are documented there;
// this package re-exports the surface a downstream user needs.
package overlay

import (
	"repro/internal/bnb"
	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/greedy"
	"repro/internal/netmodel"
	"repro/internal/sim"
)

// Instance is a 3-level overlay design problem: the tripartite digraph with
// per-edge loss probabilities and costs, reflector build costs and fanouts,
// per-sink demands, and the §6 extension data (bandwidths, capacities, ISP
// colors). See netmodel.Instance for field documentation.
type Instance = netmodel.Instance

// Design is an integral overlay network: reflectors built, streams
// ingested, and (reflector → sink) service assignments.
type Design = netmodel.Design

// Audit is the constraint-by-constraint evaluation of a Design.
type Audit = netmodel.Audit

// SolveOptions configures the approximation algorithm.
type SolveOptions = core.Options

// SolveResult carries the design plus diagnostics: the audit, the LP
// optimum, the solver's work (pivots, LP cells patched, full builds) and
// per-stage timings.
type SolveResult = core.Result

// SimConfig configures the packet-level simulator.
type SimConfig = sim.Config

// SimResult reports per-sink post-reconstruction stream quality.
type SimResult = sim.Result

// UniformConfig parameterizes random uniform instances.
type UniformConfig = gen.UniformConfig

// ClusteredConfig parameterizes Akamai-like geo/ISP-clustered instances.
type ClusteredConfig = gen.ClusteredConfig

// MacWorldConfig parameterizes the §1 MacWorld-keynote live-event scenario.
type MacWorldConfig = gen.MacWorldConfig

// DefaultSolveOptions returns the paper's constants (c = 64, up to 8
// re-randomizations on tail events).
func DefaultSolveOptions(seed uint64) SolveOptions { return core.DefaultOptions(seed) }

// Solve runs the full approximation algorithm of the paper on the instance:
// LP relaxation → randomized rounding → GAP or path rounding → audit.
func Solve(in *Instance, opts SolveOptions) (*SolveResult, error) { return core.Solve(in, opts) }

// AuditDesign re-checks any design (from Solve, a baseline, or handwritten)
// against every constraint of the instance.
func AuditDesign(in *Instance, d *Design) Audit { return netmodel.AuditDesign(in, d) }

// ReoptimizeResult is a churn-aware re-solve outcome (§1.3 operations).
type ReoptimizeResult = core.ReoptimizeResult

// Reoptimize re-solves an updated instance while biasing toward the prior
// deployed design (stickiness ∈ [0,1); 0 = cold solve), reporting how many
// service arcs changed — the §1.3 monitoring loop with operational churn
// control.
func Reoptimize(in *Instance, prior *Design, stickiness float64, opts SolveOptions) (*ReoptimizeResult, error) {
	return core.Reoptimize(in, prior, stickiness, opts)
}

// DefaultSimConfig returns a 10k-packet IID simulation configuration.
func DefaultSimConfig(seed uint64) SimConfig { return sim.DefaultConfig(seed) }

// Simulate plays packets through the design and measures the
// post-reconstruction loss at every edgeserver (§1.1 reconstruction:
// dedup, reorder, hole-filling, deadline).
func Simulate(in *Instance, d *Design, cfg SimConfig) *SimResult { return sim.Run(in, d, cfg) }

// DefaultUniformConfig returns a medium-difficulty uniform random instance
// configuration of the given shape.
func DefaultUniformConfig(sources, reflectors, sinks int) UniformConfig {
	return gen.DefaultUniform(sources, reflectors, sinks)
}

// NewUniformInstance draws a uniform random instance.
func NewUniformInstance(cfg UniformConfig, seed uint64) *Instance { return gen.Uniform(cfg, seed) }

// DefaultClusteredConfig returns the Akamai-like clustered topology
// configuration (regions × ISPs colos, skewed viewership).
func DefaultClusteredConfig(sources, regions, isps, sinksPerRegion int) ClusteredConfig {
	return gen.DefaultClustered(sources, regions, isps, sinksPerRegion)
}

// NewClusteredInstance draws a clustered instance; reflector colors are ISPs
// so the §6.4 color constraints are available.
func NewClusteredInstance(cfg ClusteredConfig, seed uint64) *Instance {
	return gen.Clustered(cfg, seed)
}

// DefaultMacWorldConfig returns the live-event scenario with the paper's §1
// numbers (50 Mbps reflectors, ~50k viewers).
func DefaultMacWorldConfig() MacWorldConfig { return gen.DefaultMacWorld() }

// NewMacWorldInstance builds the live-event instance.
func NewMacWorldInstance(cfg MacWorldConfig, seed uint64) *Instance { return gen.MacWorld(cfg, seed) }

// GreedyDesign runs the capacitated multi-cover greedy baseline: hard
// feasibility (never violates fanout or colors), no cost guarantee.
func GreedyDesign(in *Instance) (*Design, error) {
	if err := in.Validate(); err != nil {
		return nil, err
	}
	return greedy.Greedy(in).Design, nil
}

// ExactDesign solves the §2 integer program exactly by branch and bound.
// Exponential worst case: use only for tiny instances. The bool reports
// whether optimality was proven within the node limit.
func ExactDesign(in *Instance, nodeLimit int) (*Design, float64, bool, error) {
	if err := in.Validate(); err != nil {
		return nil, 0, false, err
	}
	res, err := bnb.Solve(in, bnb.Options{NodeLimit: nodeLimit})
	if err != nil {
		return nil, 0, false, err
	}
	return res.Design, res.Cost, res.Optimal, nil
}

// ImproveDesign removes redundant assignments from a design while keeping
// every sink at or above keepFactor of its weight demand; returns the number
// of service arcs removed.
func ImproveDesign(in *Instance, d *Design, keepFactor float64) int {
	return greedy.Improve(in, d, keepFactor)
}

// LoadInstance reads an instance from a JSON file; SaveInstance writes one.
func LoadInstance(path string) (*Instance, error) { return netmodel.LoadFile(path) }

// SaveInstance writes the instance to a JSON file.
func SaveInstance(in *Instance, path string) error { return in.SaveFile(path) }
