package core

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"os"
	"reflect"
	"testing"
	"time"

	"repro/internal/agg"
	"repro/internal/gen"
	"repro/internal/lpmodel"
	"repro/internal/netmodel"
	"repro/internal/obs"
)

// TestShardsOneGoldenEquivalence locks the pipeline refactor down: setting
// Shards to 0 or 1 must route through the identical monolithic pipeline —
// byte-identical designs, the same stage structure, the same LP cost — so
// enabling the field is provably inert until a caller asks for ≥2 shards.
func TestShardsOneGoldenEquivalence(t *testing.T) {
	in := gen.Clustered(gen.DefaultClustered(2, 3, 2, 6), 17)
	base, err := Solve(in, DefaultOptions(4))
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []int{0, 1} {
		opts := DefaultOptions(4)
		opts.Shards = k
		res, err := Solve(in, opts)
		if err != nil {
			t.Fatalf("Shards=%d: %v", k, err)
		}
		wantD, _ := json.Marshal(base.Design)
		gotD, _ := json.Marshal(res.Design)
		if !bytes.Equal(wantD, gotD) {
			t.Fatalf("Shards=%d produced a different design than the monolithic pipeline", k)
		}
		if res.LPCost != base.LPCost {
			t.Fatalf("Shards=%d LP cost %v != monolithic %v", k, res.LPCost, base.LPCost)
		}
		if res.Audit.Cost != base.Audit.Cost {
			t.Fatalf("Shards=%d cost %v != monolithic %v", k, res.Audit.Cost, base.Audit.Cost)
		}
		if len(res.Stages) != len(base.Stages) {
			t.Fatalf("Shards=%d stage count %d != monolithic %d", k, len(res.Stages), len(base.Stages))
		}
		for i := range res.Stages {
			if res.Stages[i].Name != base.Stages[i].Name || res.Stages[i].Runs != base.Stages[i].Runs {
				t.Fatalf("Shards=%d stage %d = %s(x%d), monolithic has %s(x%d)",
					k, i, res.Stages[i].Name, res.Stages[i].Runs, base.Stages[i].Name, base.Stages[i].Runs)
			}
		}
		if res.ShardInfo != nil || res.ShardState != nil {
			t.Fatalf("Shards=%d must not report shard metadata", k)
		}
	}
}

// TestShardedStageStructure pins the sharded pipeline's stage names — the
// overlaysolve -json schema and the CI smoke check key off them.
func TestShardedStageStructure(t *testing.T) {
	in := gen.Clustered(gen.DefaultClustered(2, 3, 2, 6), 17)
	opts := DefaultOptions(4)
	opts.Shards = 3
	res, err := Solve(in, opts)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"shard-partition", "shard-solve", "shard-coordinate", "audit"}
	if len(res.Stages) != len(want) {
		t.Fatalf("got %d stages, want %d", len(res.Stages), len(want))
	}
	for i, name := range want {
		if res.Stages[i].Name != name {
			t.Fatalf("stage %d = %q, want %q", i, res.Stages[i].Name, name)
		}
	}
	if res.ShardInfo == nil || res.ShardInfo.Shards != 3 {
		t.Fatalf("ShardInfo = %+v, want 3 shards", res.ShardInfo)
	}
	if res.ShardState == nil || len(res.ShardState.Bases) != 3 {
		t.Fatal("sharded solve must return per-shard warm state")
	}
}

// TestShardedFallbackToMonolithic covers solveSharded's fallback branch: at
// fanout 1 no capacity split can feed every shard, so coordination gives up
// with lpmodel.ErrInfeasible and the solve falls back to the monolithic
// pipeline, which proves the instance itself infeasible. Both calls must
// report an error wrapping lpmodel.ErrInfeasible, and the registry must show
// that the sharded call ran the coordination stage and then the monolithic
// lp-solve (per-shard lp-solves never feed it). The same instance at fanout
// 5 solves on the sharded path without falling back.
func TestShardedFallbackToMonolithic(t *testing.T) {
	in := gen.Clustered(gen.DefaultClustered(2, 3, 2, 6), 9)
	for i := range in.Fanout {
		in.Fanout[i] = 1
	}
	if _, err := Solve(in, DefaultOptions(4)); !errors.Is(err, lpmodel.ErrInfeasible) {
		t.Fatalf("monolithic solve at fanout 1: err = %v, want lpmodel.ErrInfeasible", err)
	}
	reg := obs.NewRegistry()
	opts := DefaultOptions(4)
	opts.Shards = 3
	opts.Obs = &obs.Observer{Reg: reg}
	if _, err := Solve(in, opts); !errors.Is(err, lpmodel.ErrInfeasible) {
		t.Fatalf("sharded solve at fanout 1: err = %v, want lpmodel.ErrInfeasible", err)
	}
	runs := func(stage string) float64 { return reg.Counter(obs.MStageRuns, obs.L("stage", stage)).Value() }
	if got := runs("shard-coordinate"); got != 1 {
		t.Fatalf("shard-coordinate ran %v times, want 1", got)
	}
	if got := runs("lp-solve"); got != 1 {
		t.Fatalf("monolithic fallback lp-solve ran %v times, want 1", got)
	}

	for i := range in.Fanout {
		in.Fanout[i] = 5
	}
	opts.Obs = nil
	res, err := Solve(in, opts)
	if err != nil {
		t.Fatalf("sharded solve at fanout 5: %v", err)
	}
	if res.ShardInfo == nil || res.ShardInfo.Fallback {
		t.Fatalf("sharded solve at fanout 5 fell back: %+v", res.ShardInfo)
	}
}

// TestShardedChurnDirtiesOneShard is the churn-stability contract of the
// cost-anchor partition: a single-sink delta routed through an incremental
// session, right after the first epoch, patches exactly the one shard
// owning that sink.
func TestShardedChurnDirtiesOneShard(t *testing.T) {
	cc := gen.DefaultClustered(2, 3, 3, 8)
	cc.Fanout = int(1.5*float64(cc.Fanout) + 0.5) // headroom: no coordination rounds
	in := gen.Clustered(cc, 7)

	opts := DefaultOptions(7)
	opts.Shards = 3
	sess := NewSession(opts, 0, true)

	res, err := sess.Step(in)
	if err != nil {
		t.Fatal(err)
	}
	si := res.ShardInfo
	if si == nil || si.Shards != 3 {
		t.Fatalf("expected a 3-shard solve, got %+v", si)
	}
	state := res.ShardState
	if state == nil || len(state.Sinks) != 3 {
		t.Fatal("no shard state carried")
	}

	// Touch one sink of shard 1 only.
	target := state.Sinks[1][0]
	d := netmodel.Delta{Note: "single-sink retarget",
		SetThreshold: []netmodel.SinkValue{{Sink: target, Value: 0.9}}}
	ds, err := d.Apply(in)
	if err != nil {
		t.Fatal(err)
	}
	sess.Observe(ds)
	res, err = sess.Step(in)
	if err != nil {
		t.Fatal(err)
	}
	si = res.ShardInfo
	t.Logf("patches per shard after single-sink delta: %v (rounds=%d)", si.PerShardPatches, si.Rounds)
	if si.PerShardPatches[1] == 0 {
		t.Fatal("dirty shard reported zero patches")
	}
	for s := range si.PerShardPatches {
		if s == 1 {
			continue
		}
		if si.PerShardPatches[s] != 0 || si.PerShardRebuilds[s] != 0 {
			t.Fatalf("untouched shard %d was patched (%d cells, %d rebuilds)",
				s, si.PerShardPatches[s], si.PerShardRebuilds[s])
		}
	}
	// All three shards reuse their cached sub-instance: the clean two have
	// nothing routed to them, and the dirty one's delta is value-patched in
	// place rather than re-extracted.
	if si.ExtractionsSkipped < 2 {
		t.Fatalf("clean shards should skip extraction: got %d skips", si.ExtractionsSkipped)
	}
}

// TestOneShotShardedSolveExtractsFresh: a one-shot sharded Solve has no
// delta flow, so handed the ShardState of a previous solve of an instance
// mutated since without report, it must extract every shard's sub-instance
// and build every shard LP afresh rather than trust the state's caches —
// and so land where a Solve without the state lands.
func TestOneShotShardedSolveExtractsFresh(t *testing.T) {
	cc := gen.DefaultClustered(2, 3, 3, 8)
	cc.Fanout = int(1.5*float64(cc.Fanout) + 0.5)
	in := gen.Clustered(cc, 7)
	opts := DefaultOptions(7)
	opts.Shards = 3
	first, err := Solve(in, opts)
	if err != nil {
		t.Fatal(err)
	}

	// Reprice every arc of sinks 0–5, with no session to observe it.
	var d netmodel.Delta
	for i := 0; i < in.NumReflectors; i++ {
		for j := 0; j < 6; j++ {
			d.ScaleRefSinkCost = append(d.ScaleRefSinkCost, netmodel.ArcValue{A: i, B: j, Value: 3})
		}
	}
	if _, err := d.Apply(in); err != nil {
		t.Fatal(err)
	}

	withState := opts
	withState.ShardState = first.ShardState
	got, err := Solve(in, withState)
	if err != nil {
		t.Fatal(err)
	}
	want, err := Solve(in, opts)
	if err != nil {
		t.Fatal(err)
	}
	if n := got.ShardInfo.ExtractionsSkipped; n != 0 {
		t.Fatalf("one-shot solve reused %d cached sub-instances", n)
	}
	// The state's bases warm-start the shard LPs, which may reach the same
	// optima along other pivot paths: the costs agree to rounding.
	if math.Abs(got.LPCost-want.LPCost) > 1e-9*want.LPCost {
		t.Fatalf("LP cost %.17g with the previous shard state, %.17g without", got.LPCost, want.LPCost)
	}
	if !reflect.DeepEqual(got.Design, want.Design) {
		t.Fatal("the previous shard state changed the deployed design")
	}
}

// TestShardedAggregationSandwich composes both scaling layers: viewer
// aggregation folds the sink axis, the fold is partitioned into shards whose
// capacity the coordination pass reconciles, and the full stage sandwich is
// visible in Result.Stages, with the disaggregated design passing the audit
// on the true instance.
func TestShardedAggregationSandwich(t *testing.T) {
	in := gen.Clustered(gen.DefaultClustered(2, 3, 3, 8), 5)
	opts := DefaultOptions(11)
	opts.Shards = 3
	opts.Aggregate = &agg.Config{}
	res, err := Solve(in, opts)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"aggregate", "shard-partition", "shard-solve", "shard-coordinate", "audit", "disaggregate"}
	if len(res.Stages) != len(want) {
		t.Fatalf("got %d stages %v, want %v", len(res.Stages), res.Stages, want)
	}
	for i, name := range want {
		if res.Stages[i].Name != name {
			t.Fatalf("stage %d = %q, want %q", i, res.Stages[i].Name, name)
		}
	}
	if res.ShardInfo == nil || res.ShardInfo.Shards != 3 {
		t.Fatalf("ShardInfo = %+v, want 3 shards", res.ShardInfo)
	}
	if !res.Audit.StructureOK {
		t.Fatal("composed design violates structure constraints on the true instance")
	}
	if !MeetsGuarantee(res.Audit, res.PathRounding) {
		t.Fatalf("composed design misses the paper guarantee: %v", res.Audit)
	}
}

// TestShardedBeatsMonolithicWall is the always-on wall-clock acceptance: on
// a 200-sink clustered instance, an 8-shard solve must beat the monolithic
// solve by at least 2x while passing the paper's audit at a cost within the
// property-tested bound. (The measured margin is ~30x — the LP solve is
// superlinear in model size, so eight 25-sink LPs cost far less than one
// 200-sink LP even on a single core; the assertion keeps a wide cushion
// for slow CI machines.)
func TestShardedBeatsMonolithicWall(t *testing.T) {
	if testing.Short() {
		t.Skip("monolithic 200-sink solve takes seconds; skipped with -short")
	}
	in := gen.Clustered(gen.DefaultClustered(2, 8, 2, 25), 7)

	opts := DefaultOptions(1)
	monoStart := time.Now()
	mono, err := Solve(in, opts)
	if err != nil {
		t.Fatal(err)
	}
	monoWall := time.Since(monoStart)

	opts.Shards = 8
	shardStart := time.Now()
	sharded, err := Solve(in, opts)
	if err != nil {
		t.Fatal(err)
	}
	shardWall := time.Since(shardStart)

	t.Logf("monolithic %v cost %.1f | sharded(8) %v cost %.1f | speedup %.1fx",
		monoWall.Round(time.Millisecond), mono.Audit.Cost,
		shardWall.Round(time.Millisecond), sharded.Audit.Cost,
		float64(monoWall)/float64(shardWall))
	if sharded.ShardInfo.Fallback {
		t.Fatal("sharded solve fell back to monolithic")
	}
	if !sharded.Audit.StructureOK || !MeetsGuarantee(sharded.Audit, sharded.PathRounding) {
		t.Fatalf("sharded audit fails: %v", sharded.Audit)
	}
	if ratio := sharded.Audit.Cost / mono.Audit.Cost; ratio > 1.30 {
		t.Fatalf("sharded cost %.3fx monolithic, above the 1.30x property bound", ratio)
	}
	if shardWall*2 > monoWall {
		t.Fatalf("sharded %v not ≥2x faster than monolithic %v", shardWall, monoWall)
	}
}

// TestShardAcceptance2000 is the full-scale acceptance run of ISSUE 3: a
// gen.Clustered instance with 2000 sinks, solved with -shards 8, must pass
// the audit and beat the monolithic solve by ≥2x wall-clock. At this size
// the monolithic simplex takes one to one and a half minutes on a 2-core
// host (BENCH_shard.json's D=2000 reference), so the monolithic attempt
// runs concurrently under a deadline of 2x the sharded wall: finishing the
// comparison either way without holding tier-1 hostage. Gated behind OVERLAY_SHARD_ACCEPTANCE=1 because even the
// sharded solve costs ~10 s and the abandoned monolithic attempt keeps a
// core busy until the test binary exits; BENCH_shard.json records a run.
func TestShardAcceptance2000(t *testing.T) {
	if os.Getenv("OVERLAY_SHARD_ACCEPTANCE") == "" {
		t.Skip("set OVERLAY_SHARD_ACCEPTANCE=1 to run the 2000-sink acceptance comparison")
	}
	cc := gen.DefaultClustered(2, 4, 3, 500)
	in := gen.Clustered(cc, 7)
	in.Color = nil // keep the LP to its core rows at this scale
	in.NumColors = 0
	if in.NumSinks < 2000 {
		t.Fatalf("instance has %d sinks, want ≥ 2000", in.NumSinks)
	}

	opts := DefaultOptions(1)
	opts.Shards = 8
	shardStart := time.Now()
	sharded, err := Solve(in, opts)
	if err != nil {
		t.Fatal(err)
	}
	shardWall := time.Since(shardStart)
	if sharded.ShardInfo.Fallback {
		t.Fatal("sharded solve fell back to monolithic")
	}
	if !sharded.Audit.StructureOK || !MeetsGuarantee(sharded.Audit, sharded.PathRounding) {
		t.Fatalf("sharded audit fails: %v", sharded.Audit)
	}
	t.Logf("sharded(8) D=%d: wall=%v cost=%.1f pivots=%d rounds=%d",
		in.NumSinks, shardWall.Round(time.Millisecond), sharded.Audit.Cost,
		sharded.LPPivots, sharded.ShardInfo.Rounds)

	type monoOut struct {
		res  *Result
		err  error
		wall time.Duration
	}
	done := make(chan monoOut, 1)
	go func() {
		start := time.Now()
		res, err := Solve(in, DefaultOptions(1))
		done <- monoOut{res, err, time.Since(start)}
	}()
	select {
	case m := <-done:
		if m.err != nil {
			t.Logf("monolithic solve failed outright after %v: %v (sharded wins by forfeit)",
				m.wall.Round(time.Second), m.err)
			return
		}
		t.Logf("monolithic finished in %v cost %.1f", m.wall.Round(time.Second), m.res.Audit.Cost)
		if shardWall*2 > m.wall {
			t.Fatalf("sharded %v not ≥2x faster than monolithic %v", shardWall, m.wall)
		}
		if ratio := sharded.Audit.Cost / m.res.Audit.Cost; ratio > 1.30 {
			t.Fatalf("sharded cost %.3fx monolithic, above the 1.30x property bound", ratio)
		}
	case <-time.After(2 * shardWall):
		t.Logf("monolithic still running after 2x the sharded wall (%v) — ≥2x speedup proven", 2*shardWall)
	}
}

// TestShardedAggAcceptance100k is the composed-scale acceptance: a
// 10^5-viewer, 200-reflector epoch through aggregation + 8-way sharding must
// land under 30 s of wall with the full stage sandwich visible. Gated with
// the other heavy sharded acceptance run:
//
//	OVERLAY_SHARD_ACCEPTANCE=1 go test ./internal/core/ -run TestShardedAggAcceptance100k -timeout 10m
func TestShardedAggAcceptance100k(t *testing.T) {
	if os.Getenv("OVERLAY_SHARD_ACCEPTANCE") == "" {
		t.Skip("set OVERLAY_SHARD_ACCEPTANCE=1 to run the 10^5-viewer composed acceptance")
	}
	cfg := gen.DefaultClustered(2, 10, 5, 10_000) // 10 regions × 10^4 viewers
	cfg.ReflectorsPerColo = 4                     // 10·5·4 = 200 reflectors
	in := gen.Clustered(cfg, 7)
	in.Color = nil
	in.NumColors = 0
	if in.NumViewers() != 100_000 || in.NumReflectors != 200 {
		t.Fatalf("workload shape drifted: %d viewers, %d reflectors", in.NumViewers(), in.NumReflectors)
	}

	opts := DefaultOptions(7)
	// Colo-granular grouping: per-reflector anchors would inflate the fold
	// to ~350 groups at R=200 and put minutes back into the shard LPs — the
	// whole reason agg.ColoGroups exists (and overlaysolve's -agg-colo).
	opts.Aggregate = &agg.Config{GroupOf: agg.ColoGroups(in, 4)}
	opts.Shards = 8
	start := time.Now()
	res, err := Solve(in, opts)
	wall := time.Since(start)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"aggregate", "shard-partition", "shard-solve", "shard-coordinate", "audit", "disaggregate"}
	if len(res.Stages) != len(want) {
		t.Fatalf("got stages %v, want %v", res.Stages, want)
	}
	for i, name := range want {
		if res.Stages[i].Name != name {
			t.Fatalf("stage %d = %q, want %q", i, res.Stages[i].Name, name)
		}
	}
	t.Logf("10^5-viewer 200-reflector composed epoch: %v wall, cost %.1f, auditOK=%v, coordination rounds=%d",
		wall, res.Audit.Cost, res.AuditOK(), res.ShardInfo.Rounds)
	if !res.AuditOK() {
		t.Fatal("composed design failed the audit on the true instance")
	}
	if wall > 30*time.Second {
		t.Fatalf("composed epoch took %v, budget 30s", wall)
	}
}
