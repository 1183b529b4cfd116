package exp

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/stats"
)

// The S-series experiments validate the sharded solve path (internal/shard):
// one LP per commodity-region shard solved in parallel, reconciled by the
// capacity-coordination pass. S1 measures what sharding buys (and costs) at
// a fixed size, S2 how the gap grows with the sink population — the
// monolithic simplex is superlinear in model size, so the speedup compounds
// — and S3 how the coordination pass behaves when reflector capacity is
// actually scarce. cmd/overlaybench -shardjson runs the extended S2 sweep
// (through 2000 sinks, where the monolithic solver no longer terminates)
// and records it in BENCH_shard.json.

// shardTopo returns the S-series workload: a clustered topology sized so
// the monolithic reference solve stays affordable inline.
func shardTopo(cfg Config) (gen.ClusteredConfig, uint64) {
	if cfg.Quick {
		return gen.DefaultClustered(2, 6, 2, 10), cfg.seed(0) // D=120
	}
	return gen.DefaultClustered(2, 8, 2, 25), cfg.seed(0) // D=200
}

func auditOf(res *core.Result) (string, bool) {
	ok := res.AuditOK()
	return yes(ok), ok
}

// S1ShardedVsMonolithic sweeps the shard count on one instance: wall clock,
// total pivots, audited cost, and the cost ratio against the monolithic
// solve. The acceptance claim is ≥2x wall speedup at 8 shards with the cost
// ratio inside the property-tested 1.30x bound (in practice it hovers
// around 1x: what sharding loses to split capacity, consolidation wins back
// by deduplicating builds).
func S1ShardedVsMonolithic(cfg Config) *stats.Table {
	t := stats.NewTable("S1 — sharded vs monolithic: cost / wall / pivots by shard count",
		"shards", "wall", "Σpivots", "ΣLP vars", "cost", "vs mono", "rounds", "audit ok")
	cc, seed := shardTopo(cfg)
	in := gen.Clustered(cc, seed)

	var monoWall time.Duration
	var monoCost float64
	speedOK, costOK := false, true
	for _, k := range []int{1, 2, 4, 8} {
		opts := core.DefaultOptions(seed)
		opts.Shards = k
		start := time.Now()
		res, err := core.Solve(in, opts)
		if err != nil {
			t.AddNote("shards=%d failed: %v", k, err)
			continue
		}
		wall := time.Since(start)
		okStr, _ := auditOf(res)
		if k == 1 {
			monoWall, monoCost = wall, res.Audit.Cost
			t.AddRowf("1 (mono)", wall.Round(time.Millisecond).String(), res.LPPivots,
				res.LPVars, res.Audit.Cost, "1.000x", "-", okStr)
			continue
		}
		ratio := res.Audit.Cost / monoCost
		if k == 8 {
			speedOK = wall*2 <= monoWall
		}
		if ratio > 1.30 {
			costOK = false
		}
		t.AddRowf(k, wall.Round(time.Millisecond).String(), res.LPPivots,
			res.LPVars, res.Audit.Cost, fmt.Sprintf("%.3fx", ratio),
			res.ShardInfo.Rounds, okStr)
	}
	t.AddRow("8-shard ≥2x?", "", "", "", "", "", "", yes(speedOK))
	t.AddNote("claim: 8 shards beat the monolithic wall ≥2x with cost within 1.30x (cost bound held: %s)", yes(costOK))
	t.AddNote("instance %s: |D|=%d sinks, |R|=%d reflectors", in.Name, in.NumSinks, in.NumReflectors)
	return t
}

// S2ScalingWithSinks grows the sink population at a fixed 8-shard split and
// compares walls. The monolithic wall grows superlinearly (it is skipped
// above a budget rather than silently truncating the table); the sharded
// wall grows roughly linearly in the number of shards times the per-shard
// LP cost. The extended sweep through 2000 sinks lives in overlaybench
// -shardjson / BENCH_shard.json, where the monolithic solver's failure at
// scale is recorded with a deadline proof instead of an open-ended wait.
func S2ScalingWithSinks(cfg Config) *stats.Table {
	t := stats.NewTable("S2 — wall-clock scaling with sink count (8 shards)",
		"sinks", "mono wall", "sharded wall", "speedup", "cost vs mono", "audit ok")
	sizes := []int{15, 30} // sinks per region; regions×isps = 8 reflectors
	if !cfg.Quick {
		sizes = []int{15, 30, 45}
	}
	const monoBudgetSinks = 400 // above this the inline mono solve is minutes
	for _, spr := range sizes {
		cc := gen.DefaultClustered(2, 4, 2, spr)
		in := gen.Clustered(cc, cfg.seed(1))
		opts := core.DefaultOptions(cfg.seed(1))
		opts.Shards = 8
		start := time.Now()
		sharded, err := core.Solve(in, opts)
		if err != nil {
			t.AddNote("sharded D=%d failed: %v", in.NumSinks, err)
			continue
		}
		shardWall := time.Since(start)
		okStr, _ := auditOf(sharded)
		if in.NumSinks > monoBudgetSinks {
			t.AddRowf(in.NumSinks, "skipped (budget)", shardWall.Round(time.Millisecond).String(),
				"-", "-", okStr)
			continue
		}
		start = time.Now()
		mono, err := core.Solve(in, core.DefaultOptions(cfg.seed(1)))
		if err != nil {
			t.AddNote("mono D=%d failed: %v", in.NumSinks, err)
			continue
		}
		monoWall := time.Since(start)
		t.AddRowf(in.NumSinks, monoWall.Round(time.Millisecond).String(),
			shardWall.Round(time.Millisecond).String(),
			fmt.Sprintf("%.1fx", float64(monoWall)/float64(shardWall)),
			fmt.Sprintf("%.3fx", sharded.Audit.Cost/mono.Audit.Cost), okStr)
	}
	t.AddNote("monolithic solves above %d sinks are skipped by budget, not measured as 0 — see BENCH_shard.json for the 2000-sink run", monoBudgetSinks)
	return t
}

// S3CoordinationUnderScarcity shrinks reflector fanouts toward the bare
// minimum and watches the coordination pass work: with ample capacity the
// initial affinity split is final (0 rounds); as capacity tightens, shards
// saturate their allocations and the re-bid/re-solve machinery engages.
// Every design must still pass the audit, and the cost ratio to the
// monolithic solve must stay inside the property bound.
func S3CoordinationUnderScarcity(cfg Config) *stats.Table {
	t := stats.NewTable("S3 — coordination under capacity scarcity (4 shards)",
		"fanout scale", "rounds", "re-solves", "consolidated", "cost vs mono", "Σpivots", "audit ok")
	cc, seed := shardTopo(cfg)
	base := cc.Fanout
	for _, scale := range []float64{1.0, 0.7, 0.5} {
		cc.Fanout = int(float64(base)*scale + 0.5)
		in := gen.Clustered(cc, seed)
		mono, err := core.Solve(in, core.DefaultOptions(seed))
		if err != nil {
			t.AddRowf(fmt.Sprintf("%.2f", scale), "-", "-", "-", "-", "-", "infeasible for mono too: "+yes(false))
			continue
		}
		opts := core.DefaultOptions(seed)
		opts.Shards = 4
		res, err := core.Solve(in, opts)
		if err != nil {
			t.AddNote("scale %.2f sharded failed: %v", scale, err)
			continue
		}
		okStr, _ := auditOf(res)
		si := res.ShardInfo
		fb := ""
		if si.Fallback {
			fb = " (FELL BACK)"
		}
		t.AddRowf(fmt.Sprintf("%.2f", scale), si.Rounds, si.Resolves, si.ConsolidatedBuilds,
			fmt.Sprintf("%.3fx%s", res.Audit.Cost/mono.Audit.Cost, fb),
			res.LPPivots, okStr)
	}
	t.AddNote("fanout scale 1.0 ≈ 3 service slots per sink; 0.5 leaves barely enough for double coverage")
	t.AddNote("coordination re-allocates slack capacity only (it never displaces live service), so at knife-edge scarcity it falls back to the monolithic solve — the honest safety valve, reported per row")
	return t
}
