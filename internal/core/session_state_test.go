package core_test

// Locks for session checkpointing: a monolithic session snapshotted
// mid-timeline (state → JSON, instance → JSON) and restored in a "new
// process" must continue the epoch sequence bit-identically to the
// uninterrupted session — same designs, costs, pivots, churn. The first
// post-restore warm start must adopt the persisted factorization rather than
// refactorize cold. A sharded session restores without its shard state, and
// its locks say what holds instead.

import (
	"bytes"
	"encoding/json"
	"reflect"
	"slices"
	"testing"

	"repro/internal/agg"
	"repro/internal/core"
	"repro/internal/live"
	"repro/internal/netmodel"
)

// snapshotSession simulates the daemon's persistence path entirely in
// memory: session state and instance both cross a JSON boundary.
func snapshotSession(t *testing.T, sess *core.Session, in *netmodel.Instance) (*core.SessionState, *netmodel.Instance) {
	t.Helper()
	buf, err := json.Marshal(sess.ExportState())
	if err != nil {
		t.Fatal(err)
	}
	var st core.SessionState
	if err := json.Unmarshal(buf, &st); err != nil {
		t.Fatal(err)
	}
	var ib bytes.Buffer
	if err := in.WriteJSON(&ib); err != nil {
		t.Fatal(err)
	}
	rin, err := netmodel.ReadJSON(&ib)
	if err != nil {
		t.Fatal(err)
	}
	return &st, rin
}

// runRoundTrip drives the uninterrupted and the snapshot/restore arm through
// the same scenario and compares every epoch exactly. Returns the restored
// arm's post-restore first-epoch stats for adoption assertions.
func runRoundTrip(t *testing.T, opts core.Options, restartAt int) (firstAfter core.ReoptimizeResult) {
	t.Helper()
	sc := live.FlashCrowd(11, 14)
	byEpoch := make(map[int][]live.Event)
	for _, ev := range sc.Events {
		byEpoch[ev.Epoch] = append(byEpoch[ev.Epoch], ev)
	}

	inA := sc.Base.Clone()
	inB := sc.Base.Clone()
	sessA := core.NewSession(opts, 0.4, true)
	sessB := core.NewSession(opts, 0.4, true)

	for e := 0; e < sc.Epochs; e++ {
		if e == restartAt {
			st, rin := snapshotSession(t, sessB, inB)
			inB = rin
			var err error
			sessB, err = core.RestoreSession(inB, opts, 0.4, true, st)
			if err != nil {
				t.Fatalf("epoch %d: restore: %v", e, err)
			}
			if sessB.Steps() != e {
				t.Fatalf("restored session at %d steps, want %d", sessB.Steps(), e)
			}
		}
		for _, ev := range byEpoch[e] {
			dsA, err := ev.Delta.Apply(inA)
			if err != nil {
				t.Fatal(err)
			}
			sessA.Observe(dsA)
			dsB, err := ev.Delta.Apply(inB)
			if err != nil {
				t.Fatal(err)
			}
			sessB.Observe(dsB)
		}
		resA, err := sessA.Step(inA)
		if err != nil {
			t.Fatalf("epoch %d uninterrupted: %v", e, err)
		}
		resB, err := sessB.Step(inB)
		if err != nil {
			t.Fatalf("epoch %d restored: %v", e, err)
		}
		if resA.Audit.Cost != resB.Audit.Cost || resA.LPCost != resB.LPCost {
			t.Fatalf("epoch %d: cost %.17g/%.17g uninterrupted vs %.17g/%.17g restored",
				e, resA.Audit.Cost, resA.LPCost, resB.Audit.Cost, resB.LPCost)
		}
		itA, itB := 0, 0
		if resA.Frac != nil {
			itA, itB = resA.Frac.Iterations, resB.Frac.Iterations
		}
		if itA != itB {
			t.Fatalf("epoch %d: pivots %d uninterrupted vs %d restored", e, itA, itB)
		}
		if !reflect.DeepEqual(resA.Design, resB.Design) {
			t.Fatalf("epoch %d: designs diverged after restore", e)
		}
		if resA.ArcChurn != resB.ArcChurn || resA.ViewerChurn != resB.ViewerChurn {
			t.Fatalf("epoch %d: churn (%d,%g) vs (%d,%g)",
				e, resA.ArcChurn, resA.ViewerChurn, resB.ArcChurn, resB.ViewerChurn)
		}
		if e == restartAt {
			firstAfter = *resB
		}
	}
	return firstAfter
}

// TestSessionSnapshotRoundTrip: warm sticky session, the daemon default.
// The first post-restore epoch must resume the persisted basis — FT
// adoption fires, and the install does not refactorize.
func TestSessionSnapshotRoundTrip(t *testing.T) {
	opts := core.DefaultOptions(11)
	first := runRoundTrip(t, opts, 7)
	if first.LPStats.FTUpdates == 0 {
		t.Fatal("first post-restore epoch did not adopt the persisted factorization")
	}
	if first.LPRebuilds != 0 || !slices.Contains(core.StageNames(first.Result), "lp-patch") {
		t.Fatal("first post-restore epoch rebuilt its LP instead of patching the restored one")
	}
}

// TestSessionSnapshotRoundTripAggregated: the aggregation plane restores
// from its membership partition and the timeline still replays exactly.
func TestSessionSnapshotRoundTripAggregated(t *testing.T) {
	opts := core.DefaultOptions(11)
	opts.Aggregate = &agg.Config{}
	runRoundTrip(t, opts, 7)
}

// TestShardedSessionSnapshotRoundTrip: a checkpoint holds no shard state, so
// a restored sharded session re-partitions, re-splits capacity from
// affinity, rebuilds every shard LP once and starts every path LP cold. Its
// designs may then part from the uninterrupted session's, so none is
// compared; what holds is that every epoch passes the audit and every
// shard's patched LP matches a fresh build after every Step.
func TestShardedSessionSnapshotRoundTrip(t *testing.T) {
	const shards, restartAt = 3, 3
	for _, tc := range []struct {
		name string
		agg  *agg.Config
	}{{"flat", nil}, {"aggregated", &agg.Config{}}} {
		t.Run(tc.name, func(t *testing.T) {
			opts := core.DefaultOptions(11)
			opts.Shards = shards
			opts.Aggregate = tc.agg
			sc := live.FlashCrowd(11, 14)
			in := sc.Base.Clone()
			sess := core.NewSession(opts, 0.4, true)
			for e := 0; e < sc.Epochs; e++ {
				if e == restartAt {
					st, rin := snapshotSession(t, sess, in)
					in = rin
					var err error
					if sess, err = core.RestoreSession(in, opts, 0.4, true, st); err != nil {
						t.Fatalf("epoch %d: restore: %v", e, err)
					}
				}
				for _, ev := range sc.Events {
					if ev.Epoch != e {
						continue
					}
					ds, err := ev.Delta.Apply(in)
					if err != nil {
						t.Fatal(err)
					}
					sess.Observe(ds)
				}
				res, err := sess.Step(in)
				if err != nil {
					t.Fatalf("epoch %d: %v", e, err)
				}
				if !res.AuditOK() {
					t.Fatalf("epoch %d: audit failed: %+v", e, res.Audit)
				}
				if err := sess.CheckPatchers(in); err != nil {
					t.Fatalf("epoch %d: %v", e, err)
				}
				if e != restartAt {
					continue
				}
				t.Logf("first restored step: %d LP rebuilds, path rounding %v, path LP %+v", res.LPRebuilds, res.PathRounding, res.PathLP)
				if si := res.ShardInfo; si == nil || si.Shards != shards || si.Fallback {
					t.Fatalf("first restored step: want %d shards without fallback, got %+v", shards, si)
				}
				if res.LPRebuilds != shards {
					t.Fatalf("first restored step rebuilt %d shard LPs, want %d", res.LPRebuilds, shards)
				}
				if res.PathRounding && res.PathLP.Cold != shards {
					t.Fatalf("first restored step solved %d path LPs cold, want %d: %+v", res.PathLP.Cold, shards, res.PathLP)
				}
			}
		})
	}
}

// TestRestoreSessionRejects: checkpoints inconsistent with the restored
// instance or the configuration must fail loudly.
func TestRestoreSessionRejects(t *testing.T) {
	sc := live.FlashCrowd(3, 4)
	in := sc.Base.Clone()
	opts := core.DefaultOptions(3)
	sess := core.NewSession(opts, 0, true)
	if _, err := sess.Step(in); err != nil {
		t.Fatal(err)
	}
	st := sess.ExportState()

	if _, err := core.RestoreSession(in, opts, 0, true, nil); err == nil {
		t.Fatal("restore accepted a nil checkpoint")
	}
	bad := *st
	bad.Steps = -1
	if _, err := core.RestoreSession(in, opts, 0, true, &bad); err == nil {
		t.Fatal("restore accepted a negative step counter")
	}
	aggOpts := opts
	aggOpts.Aggregate = &agg.Config{}
	if _, err := core.RestoreSession(in, aggOpts, 0, true, st); err == nil {
		t.Fatal("restore accepted a non-aggregated checkpoint into an aggregated session")
	}
	small := live.FlashCrowd(5, 4).Base.Clone()
	if small.NumSinks != in.NumSinks {
		if _, err := core.RestoreSession(small, opts, 0, true, st); err == nil {
			t.Fatal("restore accepted a design shaped for a different instance")
		}
	}

	// A cold (non-warm) restore drops the basis but keeps the deployment.
	cold, err := core.RestoreSession(in, opts, 0, false, st)
	if err != nil {
		t.Fatal(err)
	}
	if cold.Deployed() == nil {
		t.Fatal("cold restore lost the deployed design")
	}
}
