package core

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"testing"
	"time"

	"repro/internal/agg"
	"repro/internal/gen"
	"repro/internal/lpmodel"
	"repro/internal/netmodel"
	"repro/internal/obs"
	"repro/internal/stround"
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
		if res.ShardInfo != nil {
			t.Fatalf("Shards=%d must not report shard metadata", k)
		}
	}
}

// TestShardedStageStructure pins the sharded pipeline's stage names — the
// overlaysolve -json schema and the CI smoke check key off them — and that a
// sharded session step carries one carry per shard forward, for as long as
// the partition is kept.
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
	sess := NewSession(opts, 0, true)
	if _, err := sess.Step(in); err != nil {
		t.Fatal(err)
	}
	if sess.carried.shards == nil || len(sess.carried.shardLPs) != 3 {
		t.Fatal("sharded session step must carry shard state and one carry per shard")
	}
	for s, lc := range sess.carried.shardLPs {
		if lc.basis == nil || lc.patcher == nil || lc.path == nil {
			t.Fatalf("shard %d carries basis %v, Patcher %v, path LP %v: want all three", s, lc.basis != nil, lc.patcher != nil, lc.path != nil)
		}
	}
	// The carries live exactly as long as Prepare keeps their partition: a
	// shard state of another shape gets a fresh partition and fresh
	// carries, so the step builds every shard LP and starts every path LP
	// cold again.
	sess.carried.shards.D++
	re, err := sess.Step(in)
	if err != nil {
		t.Fatal(err)
	}
	if re.LPRebuilds != 3 || re.PathLP.Cold != 3 {
		t.Fatalf("after a fresh partition: %d shard LP builds and %d cold path LPs, want 3 and 3", re.LPRebuilds, re.PathLP.Cold)
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
// cost-anchor partition: in a 3-shard session, a single-sink delta — right
// after the first epoch, or after a quiet epoch — patches exactly the one
// shard owning that sink. The other shards' LPs stay untouched (no patches,
// no rebuilds, no refactorization), and every shard, the dirty one
// included, reuses its cached sub-instance instead of re-extracting it. The
// quiet epoch itself patches, rebuilds, extracts and refactorizes nothing.
func TestShardedChurnDirtiesOneShard(t *testing.T) {
	for _, tc := range []struct {
		name  string
		quiet bool
	}{
		{"after-epoch-0", false},
		{"after-quiet-epoch", true},
	} {
		t.Run(tc.name, func(t *testing.T) {
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
			for s, reb := range si.PerShardRebuilds {
				if reb == 0 {
					t.Fatalf("shard %d: first epoch must build its LP", s)
				}
			}
			state := sess.carried.shards
			if state == nil || len(state.Sinks) != 3 {
				t.Fatal("no shard state carried")
			}

			if tc.quiet {
				// No deltas: every shard rebinds its cached sub-instance (3
				// skips of 3 shards), adopts its persisted factorization, and
				// never refactorizes.
				res, err = sess.Step(in)
				if err != nil {
					t.Fatal(err)
				}
				si = res.ShardInfo
				for s := range si.PerShardPatches {
					if si.PerShardPatches[s] != 0 || si.PerShardRebuilds[s] != 0 {
						t.Fatalf("quiet epoch: shard %d reported patches=%d rebuilds=%d",
							s, si.PerShardPatches[s], si.PerShardRebuilds[s])
					}
				}
				if si.ExtractionsSkipped != 3 {
					t.Fatalf("quiet epoch extracted sub-instances: %d of 3 skips", si.ExtractionsSkipped)
				}
				for s, st := range si.PerShardStats {
					if st.Refactorizations != 0 {
						t.Fatalf("quiet epoch: shard %d refactorized %d times", s, st.Refactorizations)
					}
					if st.FTUpdates == 0 {
						t.Fatalf("quiet epoch: shard %d did not adopt its persisted factorization", s)
					}
				}
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
				// A shard with an empty routed dirty set must not pay any
				// basis work either: its warm start adopts the persisted
				// factorization.
				if si.PerShardStats[s].Refactorizations != 0 {
					t.Fatalf("untouched shard %d refactorized %d times", s, si.PerShardStats[s].Refactorizations)
				}
			}
			// The clean shards have nothing routed to them, and the dirty
			// one's delta is value-patched in place rather than re-extracted.
			if si.ExtractionsSkipped != 3 {
				t.Fatalf("delta epoch extracted sub-instances: %d of 3 skips", si.ExtractionsSkipped)
			}
		})
	}
}

// TestCoordinationRecoversStarvedShard sabotages a session's shard state
// between two Steps — shard 0's capacity allocation squeezed to near zero at
// every reflector, which makes its LP infeasible — and checks the
// coordination pass re-allocates capacity and completes without falling
// back to the monolithic path. The sabotage moves capacity between shards
// and keeps every reflector's total, so Prepare's rescale keeps the starved
// split.
func TestCoordinationRecoversStarvedShard(t *testing.T) {
	in := gen.Clustered(gen.DefaultClustered(2, 3, 2, 6), 9)
	const k = 3
	opts := DefaultOptions(3)
	opts.Shards = k
	sess := NewSession(opts, 0, true)

	// A healthy step first, to harvest a compatible state to sabotage.
	res, err := sess.Step(in)
	if err != nil {
		t.Fatal(err)
	}
	st := sess.carried.shards
	if st == nil {
		t.Fatal("sharded step carried no state")
	}
	for i := range st.Alloc[0] {
		moved := st.Alloc[0][i] * 0.999
		st.Alloc[0][i] -= moved
		st.Alloc[1][i] += moved
	}

	res2, err := sess.Step(in)
	if err != nil {
		t.Fatalf("step with starved shard 0: %v", err)
	}
	if res2.ShardInfo.Fallback {
		t.Fatal("coordination failed to feed starved shard; fell back to monolithic")
	}
	if res2.ShardInfo.Rounds == 0 {
		t.Fatal("expected at least one coordination round for the starved shard")
	}
	if !res2.Audit.StructureOK || !MeetsGuarantee(res2.Audit, res2.PathRounding) {
		t.Fatalf("recovered design fails audit: %v", res2.Audit)
	}
	t.Logf("starved shard recovered in %d rounds, %d re-solves, cost %.2f (healthy %.2f)",
		res2.ShardInfo.Rounds, res2.ShardInfo.Resolves, res2.Audit.Cost, res.Audit.Cost)
}

// TestShardedSolveReportsPathLP: every shard of a colored instance rounds
// through the §6.5 path LP, and the sharded Result sums the shards' path-LP
// work — which the registry's path-LP families then count. A one-shot solve
// starts every shard's path LP cold; a warm session carries each one in the
// shard's carry, so only its first epoch starts them cold.
func TestShardedSolveReportsPathLP(t *testing.T) {
	cc := gen.DefaultClustered(2, 3, 3, 8)
	cc.Fanout = int(1.5*float64(cc.Fanout) + 0.5)
	in := gen.Clustered(cc, 7)
	reg := obs.NewRegistry()
	opts := DefaultOptions(7)
	opts.Shards = 3
	opts.Obs = &obs.Observer{Reg: reg}
	res, err := Solve(in, opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.ShardInfo == nil || res.ShardInfo.Fallback || !res.PathRounding {
		t.Fatalf("want a sharded path-rounding solve, got ShardInfo %+v, PathRounding %v", res.ShardInfo, res.PathRounding)
	}
	pl := res.PathLP
	if pl.Cold == 0 || pl.Pivots == 0 {
		t.Fatalf("sharded solve reported no path LP: %+v", pl)
	}
	if pl.Resumed != 0 || pl.Remapped != 0 {
		t.Fatalf("a one-shot solve starts every shard's path LP cold, got %+v", pl)
	}
	if got := reg.Counter(obs.MPathLPPivots).Value(); got != float64(pl.Pivots) {
		t.Fatalf("path-LP pivot counter %v != result %d", got, pl.Pivots)
	}

	// The session half: a colored timeline of quiet, retarget and repricing
	// epochs through a warm 3-shard session.
	reg = obs.NewRegistry()
	opts.Obs = &obs.Observer{Reg: reg}
	sess := NewSession(opts, 0.4, true)
	epochs := []*netmodel.Delta{
		nil,
		nil,
		{Note: "retarget", SetThreshold: []netmodel.SinkValue{{Sink: 0, Value: 0.9}}},
		{Note: "reprice", ScaleRefSinkCost: []netmodel.ArcValue{{A: 0, B: 1, Value: 1.2}}},
		nil,
	}
	var total stround.Totals
	for e, d := range epochs {
		if d != nil {
			ds, err := d.Apply(in)
			if err != nil {
				t.Fatal(err)
			}
			sess.Observe(ds)
		}
		res, err := sess.Step(in)
		if err != nil {
			t.Fatal(err)
		}
		if res.ShardInfo == nil || res.ShardInfo.Fallback || !res.PathRounding {
			t.Fatalf("epoch %d: want a sharded path-rounding step, got ShardInfo %+v, PathRounding %v", e, res.ShardInfo, res.PathRounding)
		}
		pl := res.PathLP
		want := 0
		if e == 0 {
			want = 3
		}
		if pl.Cold != want {
			t.Fatalf("epoch %d: %d path LPs started cold, want %d: %+v", e, pl.Cold, want, pl)
		}
		if pl.LPStats.WarmFallbacks != 0 {
			t.Fatalf("epoch %d: %d path-LP warm fallbacks", e, pl.LPStats.WarmFallbacks)
		}
		total.Merge(pl)
	}
	t.Logf("session path LPs: %+v", total)
	if total.Resumed == 0 {
		t.Fatalf("no shard resumed its carried path LP: %+v", total)
	}
	for start, n := range map[stround.Start]int{stround.StartResumed: total.Resumed, stround.StartRemapped: total.Remapped, stround.StartCold: total.Cold} {
		if got := reg.Counter(obs.MPathLPSolves, obs.L("start", start.String())).Value(); got != float64(n) {
			t.Fatalf("path-LP solves{start=%v} counter %v != results %d", start, got, n)
		}
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
