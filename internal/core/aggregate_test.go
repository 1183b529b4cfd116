package core

import (
	"fmt"
	"reflect"
	"slices"
	"testing"

	"repro/internal/agg"
	"repro/internal/gen"
	"repro/internal/netmodel"
	"repro/internal/obs"
)

// aggStageNames asserts the aggregate/disaggregate stages bracket the result.
func aggStageNames(t *testing.T, res *Result) {
	t.Helper()
	if len(res.Stages) < 2 {
		t.Fatalf("want >= 2 stages, got %v", res.Stages)
	}
	if res.Stages[0].Name != "aggregate" {
		t.Fatalf("first stage %q, want aggregate", res.Stages[0].Name)
	}
	if last := res.Stages[len(res.Stages)-1].Name; last != "disaggregate" {
		t.Fatalf("last stage %q, want disaggregate", last)
	}
}

// TestSolveAggregatedAuditAndCost solves the same clustered instance flat and
// aggregated (auto cost-anchor grouping): the aggregated design must meet the
// paper's guarantee on the TRUE instance and cost at most 5% more than the
// flat solve — the acceptance bound the live-library harness extends to whole
// timelines.
func TestSolveAggregatedAuditAndCost(t *testing.T) {
	for _, tc := range []struct {
		name string
		cc   gen.ClusteredConfig
		seed uint64
	}{
		{"single-stream", gen.DefaultClustered(2, 3, 3, 8), 5},
		{"multi-stream", func() gen.ClusteredConfig {
			cc := gen.DefaultClustered(3, 3, 3, 6)
			cc.StreamsPerSink = 2
			cc.Fanout *= 2
			return cc
		}(), 7},
	} {
		t.Run(tc.name, func(t *testing.T) {
			in := gen.Clustered(tc.cc, tc.seed)
			opts := DefaultOptions(11)
			flat, err := Solve(in, opts)
			if err != nil {
				t.Fatal(err)
			}
			opts.Aggregate = &agg.Config{}
			aggRes, err := Solve(in, opts)
			if err != nil {
				t.Fatal(err)
			}
			aggStageNames(t, aggRes)
			if !aggRes.Audit.StructureOK {
				t.Fatal("aggregated design violates structure constraints on the true instance")
			}
			if !aggRes.AuditOK() {
				t.Fatalf("aggregated design misses the paper guarantee: %+v", aggRes.Audit)
			}
			ratio := aggRes.Audit.Cost / flat.Audit.Cost
			t.Logf("cost: flat %.4f aggregated %.4f ratio %.4f (met %d vs %d)",
				flat.Audit.Cost, aggRes.Audit.Cost, ratio, flat.Audit.MetDemand, aggRes.Audit.MetDemand)
			if ratio > 1.05 {
				t.Fatalf("aggregated cost ratio %.4f exceeds 1.05", ratio)
			}
		})
	}
}

// TestSolveAggregatedSharded runs the aggregated pipeline with sharding
// enabled on the aggregate plane: still audited on the true instance.
func TestSolveAggregatedSharded(t *testing.T) {
	in := gen.Clustered(gen.DefaultClustered(2, 3, 3, 8), 9)
	opts := DefaultOptions(3)
	opts.Aggregate = &agg.Config{}
	opts.Shards = 3
	res, err := Solve(in, opts)
	if err != nil {
		t.Fatal(err)
	}
	aggStageNames(t, res)
	if !res.AuditOK() {
		t.Fatalf("sharded aggregated solve misses the guarantee: %+v", res.Audit)
	}
	if res.ShardInfo == nil {
		t.Fatal("sharded aggregated solve reported no ShardInfo")
	}
}

// TestSessionAggregatedLPFreeEpoch is the acceptance lock on the aggregation
// tentpole: an epoch whose churn is weight-neutral inside its aggregate — a
// leave matched by a join on the same (aggregate, stream) — must solve with
// ZERO LP work: no build, no patched cell, no pivot. The joining viewer must
// still come out served (the disaggregation pass alone rewires it).
func TestSessionAggregatedLPFreeEpoch(t *testing.T) {
	cc := gen.DefaultClustered(2, 2, 2, 6)
	in := gen.Clustered(cc, 13)
	// One aggregate per stream: every viewer in group 0, so any leave+join
	// pair on the same stream is intra-aggregate.
	group := make([]int, in.NumViewers())

	// Pick two viewers on the same stream; start with one of them offline.
	var on, off int = -1, -1
	for j := 0; j < in.NumSinks && off < 0; j++ {
		for k := j + 1; k < in.NumSinks; k++ {
			if in.Commodity[j] == in.Commodity[k] {
				on, off = j, k
				break
			}
		}
	}
	if off < 0 {
		t.Fatal("no two sinks share a stream")
	}
	thr := in.Threshold[off]
	in.Threshold[off] = 0

	opts := DefaultOptions(17)
	opts.Aggregate = &agg.Config{GroupOf: group}
	reg := obs.NewRegistry()
	opts.Obs = &obs.Observer{Reg: reg}
	sess := NewSession(opts, 0, true)

	res0, err := sess.Step(in)
	if err != nil {
		t.Fatal(err)
	}
	if !res0.AuditOK() {
		t.Fatalf("epoch 0 misses the guarantee: %+v", res0.Audit)
	}
	if res0.LPRebuilds != 1 {
		t.Fatalf("epoch 0 must be a full LP build, got %d builds and %d patched cells", res0.LPRebuilds, res0.LPPatches)
	}

	// Weight-neutral swap: the online viewer leaves, the offline one joins
	// at the same threshold. Aggregate weight, threshold, and costs are all
	// unchanged, so the epoch must not touch the LP.
	delta := netmodel.Delta{
		Note: "intra-aggregate swap",
		SetThreshold: []netmodel.SinkValue{
			{Sink: on, Value: 0},
			{Sink: off, Value: thr},
		},
	}
	ds, err := delta.Apply(in)
	if err != nil {
		t.Fatal(err)
	}
	sess.Observe(ds)
	res1, err := sess.Step(in)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Contains(StageNames(res1.Result), "lp-patch") {
		t.Fatalf("epoch 1 ran no lp-patch stage: %v", StageNames(res1.Result))
	}
	if res1.LPRebuilds != 0 {
		t.Fatal("weight-neutral epoch fell back to a full LP build")
	}
	if n := res1.LPPatches; n != 0 {
		t.Fatalf("weight-neutral epoch patched %d LP cells, want 0", n)
	}
	if res1.LPPivots != 0 {
		t.Fatalf("weight-neutral epoch spent %d pivots, want 0", res1.LPPivots)
	}
	if got := reg.Counter(obs.MAggLPFreeEpochs).Value(); got != 1 {
		t.Fatalf("%s = %v, want 1", obs.MAggLPFreeEpochs, got)
	}
	if !res1.AuditOK() {
		t.Fatalf("epoch 1 misses the guarantee: %+v", res1.Audit)
	}
	// The joiner changed hands without the LP noticing: it must be served.
	served := false
	for i := 0; i < in.NumReflectors; i++ {
		if res1.Design.Serve[i][off] {
			served = true
			break
		}
	}
	if !served {
		t.Fatal("joining viewer left unserved after LP-free epoch")
	}
	if res1.ViewerChurn <= 0 {
		t.Fatal("swap epoch must report true viewer churn")
	}
}

// TestSessionAggregatedMatchesOneShot locks the Session's use of the
// aggregation bracket to the one-shot path's on a churn-free first epoch:
// same instance, same seed, flat and 3-shard. A cold session's first Step
// folds afresh as a one-shot Solve does, so the two must deploy the same
// design with the same audit, pivots and stages.
func TestSessionAggregatedMatchesOneShot(t *testing.T) {
	for _, shards := range []int{0, 3} {
		for seed := uint64(20); seed < 30; seed++ {
			t.Run(fmt.Sprintf("shards-%d/seed-%d", shards, seed), func(t *testing.T) {
				in := gen.Clustered(gen.DefaultClustered(2, 3, 2, 8), seed)
				opts := DefaultOptions(29)
				opts.Aggregate = &agg.Config{}
				opts.Shards = shards

				one, err := Solve(in, opts)
				if err != nil {
					t.Fatal(err)
				}
				sess := NewSession(opts, 0, false)
				step, err := sess.Step(in.Clone())
				if err != nil {
					t.Fatal(err)
				}
				for _, c := range []struct {
					what      string
					got, want any
				}{
					{"Design.Serve", step.Design.Serve, one.Design.Serve},
					{"Design.Build", step.Design.Build, one.Design.Build},
					{"Design.Ingest", step.Design.Ingest, one.Design.Ingest},
					{"Audit", step.Audit, one.Audit},
					{"LPPivots", step.LPPivots, one.LPPivots},
					{"stages", StageNames(step.Result), StageNames(one)},
				} {
					if !reflect.DeepEqual(c.got, c.want) {
						t.Fatalf("session epoch 0 %s = %v, one-shot %v", c.what, c.got, c.want)
					}
				}
			})
		}
	}
}
