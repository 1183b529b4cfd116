package shard_test

// Boundary hardening for the sharded path: shard counts over-asked past the
// viewer population, and zero-weight shards after a churn storm. Both used
// to be quiet degradations — an over-asked k mismatched the cached (clamped)
// partition every epoch and silently discarded all warm state; all-inactive
// shards must stay trivial no-ops instead of degenerate LPs.

import (
	"testing"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/netmodel"
	"repro/internal/shard"
)

func TestEffectiveShardsClamps(t *testing.T) {
	in := gen.Clustered(func() gen.ClusteredConfig {
		cc := gen.DefaultClustered(2, 2, 2, 4)
		cc.StreamsPerSink = 2
		cc.Fanout *= 2
		return cc
	}(), 5)
	G := in.NumViewers()
	if G >= in.NumSinks {
		t.Fatalf("want a multi-stream instance, got %d viewers over %d units", G, in.NumSinks)
	}
	for _, tc := range []struct{ k, want int }{
		{0, 1}, {-3, 1}, {1, 1}, {2, 2}, {G, G}, {G + 1, G}, {10 * G, G},
	} {
		if got := shard.EffectiveShards(in, tc.k); got != tc.want {
			t.Fatalf("EffectiveShards(%d) = %d, want %d", tc.k, got, tc.want)
		}
	}
	// The clamp is what PartitionSinks actually produces.
	for _, k := range []int{2, G, G + 7} {
		if got := len(shard.PartitionSinks(in, k)); got != shard.EffectiveShards(in, k) {
			t.Fatalf("k=%d: partition has %d shards, EffectiveShards says %d",
				k, got, shard.EffectiveShards(in, k))
		}
	}
}

// TestPrepareOverAskReusesState drives shard.Prepare directly with a k past
// the viewer population: the cached State — which always carries the CLAMPED
// partition, because PartitionSinks clamps — must still be recognized as
// compatible and reused, not silently discarded against the raw request.
// Prepare reports the reuse (Plan.Reused), which is what keeps the caller's
// per-shard state; a nil State, or one of another shape, gets a fresh
// partition and no reuse.
func TestPrepareOverAskReusesState(t *testing.T) {
	in := gen.Clustered(gen.DefaultClustered(2, 2, 2, 4), 3)
	G := in.NumViewers()
	ask := G + 5
	parts := shard.PartitionSinks(in, ask)
	if len(parts) != G {
		t.Fatalf("partition has %d shards, want clamp to %d", len(parts), G)
	}
	S, R, D := in.Dims()
	state := &shard.State{S: S, R: R, D: D, Sinks: parts, Alloc: make([][]float64, len(parts))}
	for s := range state.Alloc {
		state.Alloc[s] = make([]float64, R)
		for i := 0; i < R; i++ {
			state.Alloc[s][i] = float64(in.Fanout[i]) / float64(len(parts))
		}
	}
	p, err := shard.Prepare(in, shard.Options{Shards: ask}, state)
	if err != nil {
		t.Fatal(err)
	}
	if p.Shards() != G {
		t.Fatalf("plan has %d shards, want %d", p.Shards(), G)
	}
	for s := range parts {
		if len(p.Sinks[s]) == 0 || &p.Sinks[s][0] != &parts[s][0] {
			t.Fatalf("shard %d: over-asked Prepare recomputed the partition instead of reusing the state", s)
		}
	}
	if !p.Reused {
		t.Fatal("Prepare kept the state's partition but did not report the reuse")
	}

	other := *state
	other.R++
	for name, st := range map[string]*shard.State{"nil state": nil, "state of another shape": &other} {
		p, err := shard.Prepare(in, shard.Options{Shards: ask}, st)
		if err != nil {
			t.Fatal(err)
		}
		if p.Reused {
			t.Fatalf("%s: Prepare reported reuse", name)
		}
		if p.Shards() != G || &p.Sinks[0][0] == &parts[0][0] {
			t.Fatalf("%s: want a fresh %d-shard partition", name, G)
		}
	}
}

// TestOverAskedShardsKeepWarmState locks the clamp into the warm-state
// plumbing: a session asking for more shards than there are viewers must
// still reuse the previous epoch's partition, patchers, and cached subs —
// the second epoch patches in place instead of rebuilding every shard LP.
func TestOverAskedShardsKeepWarmState(t *testing.T) {
	cc := gen.DefaultClustered(2, 2, 2, 4)
	cc.StreamsPerSink = 2
	cc.Fanout *= 2
	in := gen.Clustered(cc, 11)
	G := in.NumViewers()

	opts := core.DefaultOptions(7)
	opts.Shards = G + 25 // far past the viewer population
	sess := core.NewSession(opts, 0, true)

	res0, err := sess.Step(in)
	if err != nil {
		t.Fatal(err)
	}
	if res0.ShardInfo == nil {
		t.Fatal("epoch 0 did not shard")
	}
	if res0.ShardInfo.Shards != G {
		t.Fatalf("effective shards %d, want clamp to %d viewers", res0.ShardInfo.Shards, G)
	}

	// A one-cell repricing epoch: with warm state surviving the over-ask,
	// at most the touched shard patches and nobody rebuilds.
	d := netmodel.Delta{Note: "one-arc repricing",
		ScaleRefSinkCost: []netmodel.ArcValue{{A: 0, B: 0, Value: 1.1}}}
	ds, err := d.Apply(in)
	if err != nil {
		t.Fatal(err)
	}
	sess.Observe(ds)
	res1, err := sess.Step(in)
	if err != nil {
		t.Fatal(err)
	}
	si := res1.ShardInfo
	if si == nil {
		t.Fatal("epoch 1 did not shard")
	}
	for s, n := range si.PerShardRebuilds {
		if n != 0 {
			t.Fatalf("shard %d rebuilt its LP %d times — warm state was discarded", s, n)
		}
	}
	if si.ExtractionsSkipped == 0 {
		t.Fatal("no shard reused its cached sub-instance — warm state was discarded")
	}
}

// TestShardedZeroWeightShardsAfterChurnStorm empties whole regions (and then
// the whole instance) and checks the sharded solve stays a trivial no-op on
// the empty shards instead of a degenerate LP: the solve succeeds, serves
// nothing it shouldn't, and still meets the guarantee on what remains.
func TestShardedZeroWeightShardsAfterChurnStorm(t *testing.T) {
	in := gen.Clustered(gen.DefaultClustered(2, 3, 2, 6), 17)
	opts := core.DefaultOptions(13)
	opts.Shards = 3

	// Storm: every sink of shard 0's partition leaves.
	parts := shard.PartitionSinks(in, 3)
	for _, j := range parts[0] {
		in.Threshold[j] = 0
	}
	res, err := core.Solve(in, opts)
	if err != nil {
		t.Fatalf("solve with an all-inactive shard: %v", err)
	}
	if !res.AuditOK() {
		t.Fatalf("audit failed with an all-inactive shard: %+v", res.Audit)
	}
	for _, j := range parts[0] {
		for i := 0; i < in.NumReflectors; i++ {
			if res.Design.Serve[i][j] {
				t.Fatalf("inactive sink %d is served", j)
			}
		}
	}

	// Full blackout: zero demand everywhere still solves and audits clean.
	for j := range in.Threshold {
		in.Threshold[j] = 0
	}
	res, err = core.Solve(in, opts)
	if err != nil {
		t.Fatalf("solve with zero active sinks: %v", err)
	}
	if !res.AuditOK() {
		t.Fatalf("audit failed with zero active sinks: %+v", res.Audit)
	}
	if res.Audit.Cost != 0 {
		t.Fatalf("empty instance deployed cost %g, want 0", res.Audit.Cost)
	}
}
