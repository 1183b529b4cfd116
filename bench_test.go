// Benchmarks regenerating every table and figure of EXPERIMENTS.md (one
// Benchmark per experiment ID), plus micro-benchmarks of the individual
// pipeline stages. Run:
//
//	go test -bench=. -benchmem                 # quick-mode suite
//	go run ./cmd/overlaybench                  # full tables, human-readable
package overlay

import (
	"io"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/exp"
	"repro/internal/gapflow"
	"repro/internal/gen"
	"repro/internal/live"
	"repro/internal/lp"
	"repro/internal/lpmodel"
	"repro/internal/obs"
	"repro/internal/round"
	"repro/internal/sim"
	"repro/internal/stats"
)

// runExp benchmarks one experiment in quick mode, reporting the rendered
// table once under -v via b.Log.
func runExp(b *testing.B, id string) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		for _, e := range exp.All() {
			if e.ID == id {
				tb := e.Run(exp.QuickConfig())
				if i == 0 && testing.Verbose() {
					b.Logf("\n%s", tb.String())
				}
			}
		}
	}
}

func BenchmarkT1EndToEndApprox(b *testing.B)       { runExp(b, "T1") }
func BenchmarkT2RoundingGuarantees(b *testing.B)   { runExp(b, "T2") }
func BenchmarkT3ParameterTradeoff(b *testing.B)    { runExp(b, "T3") }
func BenchmarkF3IntegralityGap(b *testing.B)       { runExp(b, "F3") }
func BenchmarkT4ColorConstraints(b *testing.B)     { runExp(b, "T4") }
func BenchmarkT5LossModel(b *testing.B)            { runExp(b, "T5") }
func BenchmarkT6ISPFailure(b *testing.B)           { runExp(b, "T6") }
func BenchmarkT7Scalability(b *testing.B)          { runExp(b, "T7") }
func BenchmarkT8Baselines(b *testing.B)            { runExp(b, "T8") }
func BenchmarkT9LiveEventScenario(b *testing.B)    { runExp(b, "T9") }
func BenchmarkT10Bandwidth(b *testing.B)           { runExp(b, "T10") }
func BenchmarkT11EdgeCapacities(b *testing.B)      { runExp(b, "T11") }
func BenchmarkT12ChernoffTails(b *testing.B)       { runExp(b, "T12") }
func BenchmarkT13MulticastTree(b *testing.B)       { runExp(b, "T13") }
func BenchmarkT14IngestCaps(b *testing.B)          { runExp(b, "T14") }
func BenchmarkT15CorrelatedOutages(b *testing.B)   { runExp(b, "T15") }
func BenchmarkA1CuttingPlaneAblation(b *testing.B) { runExp(b, "A1") }
func BenchmarkA2GapVsPathRounding(b *testing.B)    { runExp(b, "A2") }
func BenchmarkA3RepairCost(b *testing.B)           { runExp(b, "A3") }
func BenchmarkL1FlashCrowd(b *testing.B)           { runExp(b, "L1") }
func BenchmarkL2DiurnalStickiness(b *testing.B)    { runExp(b, "L2") }
func BenchmarkL3RollingISPOutage(b *testing.B)     { runExp(b, "L3") }
func BenchmarkL4BackboneRepricing(b *testing.B)    { runExp(b, "L4") }
func BenchmarkL5IncrementalRebuild(b *testing.B)   { runExp(b, "L5") }

// TestIncrementalRebuildAcceptance is the incremental-LP-rebuild acceptance
// gate on the 50-epoch flash crowd: replaying its delta schedule, the
// Patcher must spend at least 3x less wall than a fresh Build per epoch,
// while holding the same LP cell for cell after every epoch and rebuilding
// only at epoch 0 (exp.ReplayPatches). The walls compared are sums of
// per-epoch minimums over 7 interleaved runs, so one stall in one run
// cannot fail the gate.
func TestIncrementalRebuildAcceptance(t *testing.T) {
	rp, err := exp.ReplayPatches(live.FlashCrowd(1, 50), exp.ReplayRuns)
	if err != nil {
		t.Fatal(err)
	}
	if !rp.Identical {
		t.Fatal("a patched LP differed from the fresh build of the same epoch")
	}
	if rp.Rebuilds != 1 {
		t.Fatalf("the replay performed %d full builds, want exactly the epoch-0 one", rp.Rebuilds)
	}
	t.Logf("LP construction over 50 epochs, per-epoch minimums of %d runs: rebuild %v, patch %v (%.1fx), %d cells patched",
		exp.ReplayRuns, time.Duration(rp.RebuildNS), time.Duration(rp.PatchNS), rp.Speedup, rp.Patches)
	if rp.Speedup < 3 {
		t.Fatalf("incremental LP construction only %.2fx faster than rebuild (want >=3x): %d vs %d ns",
			rp.Speedup, rp.RebuildNS, rp.PatchNS)
	}
}

// sumNS adds up walls in nanoseconds.
func sumNS(walls []int64) int64 {
	total := int64(0)
	for _, w := range walls {
		total += w
	}
	return total
}

// obsOverheadBudgetNS bounds what the observability tap may add to a warm
// epoch of the 20-epoch flash crowd, averaged over epochs 1..19: 18 µs. It
// is a fixed constant, not a share of the epoch, so a faster solver cannot
// turn the tracer's fixed per-epoch cost (about 8 µs) into a failure. When
// it was set it was 3% of the mean epoch of the whole timeline, cold epoch
// included (12.1–12.8 ms per 20 epochs on a 2-core host), and about 5% of
// a mean warm epoch (0.34 ms); warm epochs now average about 0.25 ms, so
// it is about 7% of one.
const obsOverheadBudgetNS = 18_000

// obsColdBudgetNS bounds what the tap may add to the cold epoch 0, which
// provisions from scratch (about 4.5 ms) and records the most span events:
// one per refactorization of the cold solve, against 0–2 in a warm epoch,
// so its trace is the largest. On a 2-core
// host the cold epoch's minimum over 161 runs still differed between the
// arms by up to 1.0 ms run alone and 1.7 ms beside other test binaries, so
// the bound sits above that noise. It catches a tap that adds half a cold
// provision, not one that merely doubles what the tap costs there now.
const obsColdBudgetNS = 2_500_000

// TestObservabilityOverheadAcceptance is the PR 7 acceptance gate: running
// a 20-epoch flash-crowd timeline with the full observability tap on —
// canonical metrics registry plus JSONL tracer — must add at most
// obsOverheadBudgetNS per warm epoch and at most obsColdBudgetNS to the
// cold epoch over the uninstrumented run. Arms are interleaved 161x and
// each epoch's wall is the minimum across runs (stats.MinAcross). The cold
// epoch has a bound of its own because its minimum is too noisy for the
// warm budget: averaged into all 20 epochs it alone moved the reading by
// up to 51 µs run alone and 86 µs beside other test binaries, while the
// warm epochs held it between −10 and 10 µs. Under the race detector the
// assertions are informational only (instrumented atomics distort the
// differences), so that build keeps 7 runs.
func TestObservabilityOverheadAcceptance(t *testing.T) {
	runs := 161
	if raceEnabled {
		runs = 7
	}
	sc := live.FlashCrowd(1, 20)
	runOnce := func(o *obs.Observer) []int64 {
		t.Helper()
		cfg := live.Config{Policy: live.WarmStickyPolicy(), Obs: o}
		rep, err := live.Run(sc, cfg)
		if err != nil {
			t.Fatal(err)
		}
		walls := make([]int64, len(rep.Epochs))
		for i, er := range rep.Epochs {
			walls[i] = er.WallNS
		}
		return walls
	}
	mkObs := func() *obs.Observer {
		reg := obs.NewRegistry()
		obs.Canonical(reg)
		return &obs.Observer{Reg: reg, Tr: obs.NewTracer(io.Discard)}
	}
	var off, on [][]int64
	for i := 0; i < runs; i++ {
		off = append(off, runOnce(nil))
		on = append(on, runOnce(mkObs()))
	}
	offMin, onMin := stats.MinAcross(off), stats.MinAcross(on)
	coldNS := onMin[0] - offMin[0]
	warmNS := (sumNS(onMin[1:]) - sumNS(offMin[1:])) / int64(len(onMin)-1)
	t.Logf("20-epoch flash crowd, per-epoch-min wall over %d runs: cold epoch off %v, on %v (%v); warm epochs off %v, on %v (%v per epoch)",
		runs, time.Duration(offMin[0]), time.Duration(onMin[0]), time.Duration(coldNS),
		time.Duration(sumNS(offMin[1:])), time.Duration(sumNS(onMin[1:])), time.Duration(warmNS))
	if raceEnabled {
		return
	}
	if warmNS > obsOverheadBudgetNS {
		t.Errorf("observability overhead %v per warm epoch exceeds the %v budget",
			time.Duration(warmNS), time.Duration(obsOverheadBudgetNS))
	}
	if coldNS > obsColdBudgetNS {
		t.Errorf("observability overhead %v on the cold epoch exceeds its %v bound",
			time.Duration(coldNS), time.Duration(obsColdBudgetNS))
	}
}

// --- micro-benchmarks of the observability hot paths ---

// BenchmarkObsCounterAdd measures the metrics hot path: one atomic
// float-CAS add on a pre-resolved counter handle.
func BenchmarkObsCounterAdd(b *testing.B) {
	c := obs.NewRegistry().Counter("bench_total")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Add(1)
	}
}

// BenchmarkObsHistogramObserve measures one histogram observation
// (binary-search bucket + two atomics) on a pre-resolved handle.
func BenchmarkObsHistogramObserve(b *testing.B) {
	h := obs.NewRegistry().Histogram("bench_seconds", nil)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Observe(float64(i%1000) * 1e-6)
	}
}

// BenchmarkObsLabeledResolve measures the cold path the stage tracker
// takes: resolving a labeled instance through the registry each call.
func BenchmarkObsLabeledResolve(b *testing.B) {
	reg := obs.NewRegistry()
	obs.Canonical(reg)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		reg.Counter(obs.MStageRuns, obs.L("stage", "lp-solve")).Inc()
	}
}

// BenchmarkObsSpanStartEnd measures one traced span round trip: start,
// end, append-encode, write (the tracer's whole per-span cost).
func BenchmarkObsSpanStartEnd(b *testing.B) {
	tr := obs.NewTracer(io.Discard)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sp := tr.Start(nil, "lp-solve", obs.A("shard", 3))
		sp.End()
	}
}

// BenchmarkLiveTimelineWarmObserved is BenchmarkLiveTimelineWarm with the
// full observability tap on — the ratio against the plain benchmark is the
// end-to-end overhead the acceptance test bounds.
func BenchmarkLiveTimelineWarmObserved(b *testing.B) {
	sc := live.FlashCrowd(1, 20)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		reg := obs.NewRegistry()
		obs.Canonical(reg)
		cfg := live.Config{Policy: live.WarmStickyPolicy(),
			Obs: &obs.Observer{Reg: reg, Tr: obs.NewTracer(io.Discard)}}
		if _, err := live.Run(sc, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// --- micro-benchmarks of the pipeline stages ---

// BenchmarkStageLPSolve measures the exact simplex on the §2 relaxation —
// per §5.1 this dominates the end-to-end running time.
func BenchmarkStageLPSolve(b *testing.B) {
	in := gen.Uniform(gen.DefaultUniform(2, 8, 20), 3)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := lpmodel.SolveLP(in, lpmodel.DefaultOptions(in)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkStageLPWarmResolve measures a warm-started re-solve of a
// cost-churned instance — the §1.3 monitoring-loop workload.
func BenchmarkStageLPWarmResolve(b *testing.B) {
	in := gen.Uniform(gen.DefaultUniform(2, 8, 20), 3)
	base, err := lpmodel.SolveLP(in, lpmodel.DefaultOptions(in))
	if err != nil {
		b.Fatal(err)
	}
	churned := in.Clone()
	for i := 0; i < churned.NumReflectors; i++ {
		for j := 0; j < churned.NumSinks; j++ {
			if (i+j)%3 == 0 {
				churned.RefSinkCost[i][j] *= 1.15
			}
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p, m := lpmodel.Build(churned, lpmodel.DefaultOptions(churned))
		if _, err := lpmodel.SolveBuiltOpts(churned, p, m, lp.Options{WarmStart: base.Basis}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkStageRounding measures the §3 randomized rounding alone.
func BenchmarkStageRounding(b *testing.B) {
	in := gen.Uniform(gen.DefaultUniform(2, 8, 20), 3)
	fs, err := lpmodel.SolveLP(in, lpmodel.DefaultOptions(in))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		round.Apply(in, fs, round.DefaultOptions(uint64(i)))
	}
}

// BenchmarkStageGAPFlow measures the §5 conversion-network rounding alone.
func BenchmarkStageGAPFlow(b *testing.B) {
	in := gen.Uniform(gen.DefaultUniform(2, 8, 20), 3)
	fs, err := lpmodel.SolveLP(in, lpmodel.DefaultOptions(in))
	if err != nil {
		b.Fatal(err)
	}
	r := round.Apply(in, fs, round.DefaultOptions(7))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		gapflow.Round(in, r.XBar)
	}
}

// BenchmarkEndToEndSolve measures the full pipeline.
func BenchmarkEndToEndSolve(b *testing.B) {
	in := gen.Uniform(gen.DefaultUniform(2, 8, 20), 3)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Solve(in, core.DefaultOptions(uint64(i))); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLiveTimelineWarm measures a full 20-epoch flash-crowd timeline
// under the warm+sticky policy — the live engine's steady-state workload.
func BenchmarkLiveTimelineWarm(b *testing.B) {
	sc := live.FlashCrowd(1, 20)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := live.Run(sc, live.Config{Policy: live.WarmStickyPolicy()}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLiveTimelineCold is the same timeline with cold re-solves — the
// ratio against BenchmarkLiveTimelineWarm is the engine's headline speedup.
func BenchmarkLiveTimelineCold(b *testing.B) {
	sc := live.FlashCrowd(1, 20)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := live.Run(sc, live.Config{Policy: live.ColdPolicy()}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPacketSim measures simulator throughput (packets × sinks per op).
func BenchmarkPacketSim(b *testing.B) {
	in := gen.Uniform(gen.DefaultUniform(2, 8, 20), 3)
	res, err := core.Solve(in, core.DefaultOptions(1))
	if err != nil {
		b.Fatal(err)
	}
	cfg := sim.DefaultConfig(1)
	cfg.Packets = 10000
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sim.Run(in, res.Design, cfg)
	}
	b.SetBytes(int64(cfg.Packets * in.NumSinks))
}

// BenchmarkShardedVsMonolithic compares the two solve paths on a 120-sink
// clustered instance (the size keeps the monolithic op affordable for
// -benchtime 1x smoke runs; BENCH_shard.json tracks the scaling story
// through 2000 sinks, where only the sharded path terminates).
func BenchmarkShardedVsMonolithic(b *testing.B) {
	in := gen.Clustered(gen.DefaultClustered(2, 6, 2, 10), 7)
	b.Run("monolithic", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := core.Solve(in, core.DefaultOptions(1)); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("shards-6", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			opts := core.DefaultOptions(1)
			opts.Shards = 6
			if _, err := core.Solve(in, opts); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkShardedLiveEpochs measures the sharded re-solve loop: a 10-epoch
// repricing timeline at 3 shards with per-shard warm state.
func BenchmarkShardedLiveEpochs(b *testing.B) {
	sc := live.GradualRepricing(5, 10)
	for i := 0; i < b.N; i++ {
		cfg := live.Config{Policy: live.WarmStickyPolicy()}
		cfg.Solver.Shards = 3
		if _, err := live.Run(sc, cfg); err != nil {
			b.Fatal(err)
		}
	}
}
