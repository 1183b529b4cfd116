package core_test

// Session-level locks for the incremental LP rebuild: every Patcher a
// session carries must hold exactly the LP a fresh build makes of its plane,
// and a patching session must be indistinguishable — design by design, pivot
// by pivot — from one that rebuilds the LP every epoch (core.WithRebuildLP).
// TestShardedChurnDirtiesOneShard (shard_test.go) locks how a sharded
// session routes an epoch's dirty set to exactly the shards it touches.

import (
	"reflect"
	"testing"

	"repro/internal/agg"
	"repro/internal/core"
	"repro/internal/live"
)

// TestSessionPatchersMatchBuild is the direct lock on the Session's delta
// flow: after every Step, each Patcher the session carries — the monolithic
// one, or one per shard — must hold exactly the Problem lpmodel.Build makes
// of its plane (Session.CheckPatchers). It runs the whole scenario library
// flat, aggregated and 3-shard, under the cold and the warm+sticky policy,
// so a dirt class the session fails to route — a deployment's bias flips,
// a kind of agg.Sync change, a shard's routed cells — shows as a stale cell.
func TestSessionPatchersMatchBuild(t *testing.T) {
	modes := []struct {
		name string
		set  func(*core.Options)
	}{
		{"flat", func(*core.Options) {}},
		{"aggregate", func(o *core.Options) { o.Aggregate = &agg.Config{} }},
		{"shards-3", func(o *core.Options) { o.Shards = 3 }},
	}
	for _, name := range live.Names() {
		for _, mode := range modes {
			for _, pol := range []live.Policy{live.ColdPolicy(), live.WarmStickyPolicy()} {
				t.Run(name+"/"+mode.name+"/"+pol.Name, func(t *testing.T) {
					sc, err := live.Make(name, 5, 12)
					if err != nil {
						t.Fatal(err)
					}
					opts := core.DefaultOptions(sc.Seed)
					mode.set(&opts)
					in := sc.Base.Clone()
					sess := core.NewSession(opts, pol.Stickiness, pol.WarmStart)
					eng := live.NewEngine(in, sess, nil, 0, 0, nil)
					for e := 0; e < sc.Epochs; e++ {
						for _, ev := range sc.Events {
							if ev.Epoch == e {
								if err := eng.Apply(ev.Delta); err != nil {
									t.Fatal(err)
								}
							}
						}
						er, _, err := eng.Step()
						if err != nil {
							t.Fatal(err)
						}
						if err := sess.CheckPatchers(in); err != nil {
							t.Fatalf("epoch %d: %v", e, err)
						}
						// Every carried Patcher — the session's one, or one
						// per shard under either policy — builds at epoch 0
						// and patches ever after.
						want := 0
						if e == 0 {
							want = max(opts.Shards, 1)
						}
						if er.LPRebuilds != want {
							t.Fatalf("epoch %d: %d full LP builds, want %d", e, er.LPRebuilds, want)
						}
					}
				})
			}
		}
	}
}

// TestSessionIncrementalMatchesRebuild steps two warm+sticky sessions —
// one patching, one rebuilding (core.WithRebuildLP) — through the same
// flash-crowd delta stream and requires identical results every epoch: same
// deployed design, same audited cost, same LP optimum, same simplex pivot
// count, same churn.
func TestSessionIncrementalMatchesRebuild(t *testing.T) {
	sc := live.FlashCrowd(7, 14)
	byEpoch := make(map[int][]live.Event)
	for _, ev := range sc.Events {
		byEpoch[ev.Epoch] = append(byEpoch[ev.Epoch], ev)
	}

	mkOpts := func(incremental bool) core.Options {
		// Pin the pre-persistence install behavior: the incremental arm
		// keeps one lp.Problem alive so its warm starts can resume the
		// persisted factorization, while the rebuild arm constructs a new
		// Problem every epoch and cannot — letting persistence differ
		// between the arms would diverge the solver trajectories by ulps
		// and mask what this test locks, the Patcher's model equivalence.
		// Persistence itself is locked by TestPersistedFactorization* in
		// internal/lp and in this package.
		opts := core.WithRefactorOnInstall(core.DefaultOptions(sc.Seed))
		if !incremental {
			opts = core.WithRebuildLP(opts)
		}
		return opts
	}
	inP := sc.Base.Clone()
	inR := sc.Base.Clone()
	sessP := core.NewSession(mkOpts(true), 0.4, true)
	sessR := core.NewSession(mkOpts(false), 0.4, true)

	for e := 0; e < sc.Epochs; e++ {
		for _, ev := range byEpoch[e] {
			ds, err := ev.Delta.Apply(inP)
			if err != nil {
				t.Fatal(err)
			}
			sessP.Observe(ds)
			ds, err = ev.Delta.Apply(inR)
			if err != nil {
				t.Fatal(err)
			}
			sessR.Observe(ds)
		}
		resP, err := sessP.Step(inP)
		if err != nil {
			t.Fatalf("epoch %d incremental: %v", e, err)
		}
		resR, err := sessR.Step(inR)
		if err != nil {
			t.Fatalf("epoch %d rebuild: %v", e, err)
		}
		if resP.Audit.Cost != resR.Audit.Cost || resP.LPCost != resR.LPCost {
			t.Fatalf("epoch %d: cost %.17g/%.17g != %.17g/%.17g",
				e, resP.Audit.Cost, resP.LPCost, resR.Audit.Cost, resR.LPCost)
		}
		if resP.Frac.Iterations != resR.Frac.Iterations {
			t.Fatalf("epoch %d: pivots %d != %d", e, resP.Frac.Iterations, resR.Frac.Iterations)
		}
		if resP.ArcChurn != resR.ArcChurn || resP.ReflectorChurn != resR.ReflectorChurn {
			t.Fatalf("epoch %d: churn (%d,%d) != (%d,%d)",
				e, resP.ArcChurn, resP.ReflectorChurn, resR.ArcChurn, resR.ReflectorChurn)
		}
		if !reflect.DeepEqual(resP.Design, resR.Design) {
			t.Fatalf("epoch %d: deployed designs differ", e)
		}
		if resP.Patch == nil {
			t.Fatalf("epoch %d: incremental session reported no patch stats", e)
		}
		if e == 0 && !resP.Patch.Rebuilt {
			t.Fatal("first epoch must be a full build")
		}
		if e > 0 && resP.Patch.Rebuilt {
			t.Fatalf("epoch %d rebuilt instead of patching", e)
		}
		if resR.Patch != nil {
			t.Fatalf("epoch %d: rebuild session unexpectedly reported patch stats", e)
		}
	}
}

// TestIncrementalMatchesRebuildTimeline is the engine-level golden lock for
// the incremental LP rebuild: a full live timeline run with lp-patch must
// produce a report identical — costs, pivots, churn, audits, SLO, sim — to
// one that rebuilds the LP every epoch (core.WithRebuildLP). Only wall
// clocks and the patch counters themselves may differ.
func TestIncrementalMatchesRebuildTimeline(t *testing.T) {
	for _, tc := range []struct {
		name   string
		shards int
	}{
		{"monolithic", 0},
		{"sharded-3", 3},
	} {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			run := func(rebuild bool) *live.RunReport {
				t.Helper()
				// Pin the pre-persistence install behavior: only the
				// incremental arm keeps lp.Problems alive across epochs, so
				// only it could resume persisted factorizations — the solver
				// trajectories would diverge by ulps for reasons unrelated
				// to what this test locks (the patched LP being identical to
				// a rebuilt one). Persistence equivalence has its own locks
				// in internal/lp and persist_test.go.
				solver := core.WithRefactorOnInstall(core.Options{Shards: tc.shards})
				if rebuild {
					solver = core.WithRebuildLP(solver)
				}
				cfg := live.Config{Solver: solver, Policy: live.WarmStickyPolicy(), SimPackets: 300, SimEvery: 4}
				rep, err := live.Run(live.FlashCrowd(1, 12), cfg)
				if err != nil {
					t.Fatal(err)
				}
				return rep
			}
			incr, rebuild := run(false), run(true)
			if incr.TotalLPRebuilds == 0 || incr.Epochs[0].LPRebuilds == 0 {
				t.Fatal("incremental run reported no epoch-0 build")
			}
			if incr.TotalLPPatches == 0 {
				t.Fatal("incremental run patched nothing across a churning timeline")
			}
			for _, er := range incr.Epochs[1:] {
				if tc.shards == 0 && er.LPRebuilds != 0 {
					t.Fatalf("epoch %d fell back to a full rebuild", er.Epoch)
				}
			}
			if rebuild.TotalLPPatches != 0 || rebuild.TotalLPRebuilds != 0 {
				t.Fatal("rebuild run reported patch activity")
			}
			scrubRunWall(incr)
			scrubRunWall(rebuild)
			scrubRunPatches(incr)
			if !reflect.DeepEqual(incr, rebuild) {
				t.Fatalf("incremental and rebuild timelines diverged:\nincr:    %+v\nrebuild: %+v", incr, rebuild)
			}
		})
	}
}

// scrubRunWall zeroes a run report's wall-clock fields, the only ones that
// differ between two runs of one timeline.
func scrubRunWall(rep *live.RunReport) {
	rep.TotalWallNS = 0
	rep.EpochWallQuantiles = live.WallQuantiles{}
	rep.StageWallQuantiles = nil
	for i := range rep.Epochs {
		rep.Epochs[i].WallNS = 0
		rep.Epochs[i].StageWallNS = nil
	}
}

// scrubRunPatches zeroes a run report's incremental-rebuild counters: the
// LP cells patched, the full builds, and the shard extractions skipped.
func scrubRunPatches(rep *live.RunReport) {
	rep.TotalLPPatches = 0
	rep.TotalLPRebuilds = 0
	rep.TotalExtractionsSkipped = 0
	for i := range rep.Epochs {
		rep.Epochs[i].LPPatches = 0
		rep.Epochs[i].LPRebuilds = 0
		rep.Epochs[i].ExtractionsSkipped = 0
	}
}
