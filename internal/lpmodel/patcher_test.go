package lpmodel_test

// Golden equivalence for the incremental LP rebuild: after EVERY event of
// EVERY library scenario, the Patcher's problem must be semantically
// identical — same matrix values in the same pattern, same relations and
// right-hand sides, same bounds, same objective — to a fresh
// Build(in, opts) of the mutated instance, and solving both must yield
// bit-identical optima. This is the lock that lets the live engine trust
// lp-patch output byte-for-byte.

import (
	"math"
	"testing"

	"repro/internal/gen"
	"repro/internal/live"
	"repro/internal/lp"
	"repro/internal/lpmodel"
	"repro/internal/netmodel"
)

// requireProblemsEqual compares two problems cell by cell with exact float
// equality (patches recompute values through the same expressions Build
// uses, so they must agree to the bit) and checks the patched CSC cache.
func requireProblemsEqual(t *testing.T, got, want *lp.Problem, ctx string) {
	t.Helper()
	if err := got.Diff(want); err != nil {
		t.Fatalf("%s: %v", ctx, err)
	}
	if err := got.CheckCSCSync(); err != nil {
		t.Fatalf("%s: patched CSC out of sync: %v", ctx, err)
	}
}

// TestPatcherGoldenEquivalenceAcrossScenarios replays every library
// scenario's delta schedule through one Patcher per scenario and checks the
// patched problem against a fresh Build after every event.
func TestPatcherGoldenEquivalenceAcrossScenarios(t *testing.T) {
	for _, name := range live.Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			sc, err := live.Make(name, 11, 16)
			if err != nil {
				t.Fatal(err)
			}
			in := sc.Base.Clone()
			opts := lpmodel.DefaultOptions()
			pt := lpmodel.NewPatcher()
			prob, _, st := pt.Sync(in, nil)
			if !st.Rebuilt {
				t.Fatal("first sync must be a full build")
			}
			fresh, _ := lpmodel.Build(in, opts)
			requireProblemsEqual(t, prob, fresh, "initial build")

			for evi, ev := range sc.Events {
				dirty, err := ev.Delta.Apply(in)
				if err != nil {
					t.Fatal(err)
				}
				prob, _, st = pt.Sync(in, dirty)
				if st.Rebuilt {
					t.Fatalf("event %d (%s): sync rebuilt instead of patching", evi, ev.Delta.Note)
				}
				fresh, _ := lpmodel.Build(in, opts)
				requireProblemsEqual(t, prob, fresh, ev.Delta.Note)
			}
			t.Logf("%s: %d events patched across %d syncs (%d full builds)", name, len(sc.Events), pt.Syncs, pt.Builds)
		})
	}
}

// TestPatcherSolveBitIdentical solves the patched problem and the fresh
// build at a few points of a flash-crowd timeline and demands bit-identical
// solution vectors, objectives, and pivot counts.
func TestPatcherSolveBitIdentical(t *testing.T) {
	sc := live.FlashCrowd(5, 14)
	in := sc.Base.Clone()
	opts := lpmodel.DefaultOptions()
	pt := lpmodel.NewPatcher()
	pt.Sync(in, nil)

	for evi, ev := range sc.Events {
		dirty, err := ev.Delta.Apply(in)
		if err != nil {
			t.Fatal(err)
		}
		prob, _, _ := pt.Sync(in, dirty)
		if evi%3 != 0 {
			continue // solving every event would dominate the test's runtime
		}
		fresh, _ := lpmodel.Build(in, opts)
		sp, err := prob.Solve()
		if err != nil {
			t.Fatal(err)
		}
		sf, err := fresh.Solve()
		if err != nil {
			t.Fatal(err)
		}
		if sp.Status != sf.Status || sp.Iterations != sf.Iterations {
			t.Fatalf("event %d: status/pivots differ: %v/%d vs %v/%d",
				evi, sp.Status, sp.Iterations, sf.Status, sf.Iterations)
		}
		if math.Float64bits(sp.Objective) != math.Float64bits(sf.Objective) {
			t.Fatalf("event %d: objective %.17g != %.17g", evi, sp.Objective, sf.Objective)
		}
		for j := range sp.X {
			if math.Float64bits(sp.X[j]) != math.Float64bits(sf.X[j]) {
				t.Fatalf("event %d: x[%d] %.17g != %.17g", evi, j, sp.X[j], sf.X[j])
			}
		}
	}
}

// TestPatcherBiasFlipsViaDirtySet covers the stickiness path: cost
// discounts applied outside the delta flow are reported through
// DiffDesigns-style dirty entries, and the patched problem must match a
// fresh build of the biased instance.
func TestPatcherBiasFlipsViaDirtySet(t *testing.T) {
	in := gen.Clustered(gen.DefaultClustered(2, 2, 2, 5), 3)
	opts := lpmodel.DefaultOptions()
	pt := lpmodel.NewPatcher()
	pt.Sync(in, nil)

	// "Deploy" a design and discount its arcs, as core.Reoptimize does.
	d := netmodel.NewDesign(in)
	d.Serve[0][0] = true
	d.Serve[1][3] = true
	d.Normalize(in)
	biased := in.Clone()
	keep := 0.6
	dirty := netmodel.DiffDesigns(nil, d)
	for _, i := range dirty.ReflectorCost {
		biased.ReflectorCost[i] *= keep
	}
	for _, a := range dirty.SrcRefCost {
		biased.SrcRefCost[a.A][a.B] *= keep
	}
	for _, a := range dirty.RefSinkCost {
		biased.RefSinkCost[a.A][a.B] *= keep
	}
	prob, _, st := pt.Sync(biased, dirty)
	if st.Rebuilt || st.Obj == 0 {
		t.Fatalf("bias sync: rebuilt=%v obj patches=%d", st.Rebuilt, st.Obj)
	}
	fresh, _ := lpmodel.Build(biased, opts)
	requireProblemsEqual(t, prob, fresh, "biased")
}

// TestPatcherRebuildsOnShapeChange: a different instance shape must fall
// back to a full Build, never a stale patch.
func TestPatcherRebuildsOnShapeChange(t *testing.T) {
	a := gen.Uniform(gen.DefaultUniform(2, 4, 6), 1)
	b := gen.Uniform(gen.DefaultUniform(2, 4, 8), 1)
	pt := lpmodel.NewPatcher()
	if _, _, st := pt.Sync(a, nil); !st.Rebuilt {
		t.Fatal("first sync must build")
	}
	if _, _, st := pt.Sync(b, nil); !st.Rebuilt {
		t.Fatal("shape change must rebuild")
	}
	if !pt.NeedsRebuild(a) {
		t.Fatal("NeedsRebuild must report the pending rebuild")
	}
	if pt.NeedsRebuild(b) {
		t.Fatal("NeedsRebuild must be false for the current shape")
	}
}
