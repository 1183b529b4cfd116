package live

import (
	"encoding/json"
	"reflect"
	"testing"

	"repro/internal/core"
)

// TestAllScenariosRunClean runs every registered scenario for a short
// horizon under the warm+sticky policy: no errors, full horizon, every
// epoch's design passing the paper's audit, every warm start of the main LP
// and of the §6.5 path LP finishing warm (no fallback to a cold solve),
// and every epoch after the first offered a basis.
func TestAllScenariosRunClean(t *testing.T) {
	for _, name := range Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			sc, err := Make(name, 7, 12)
			if err != nil {
				t.Fatal(err)
			}
			rep, err := Run(sc, Config{Policy: WarmStickyPolicy()})
			if err != nil {
				t.Fatal(err)
			}
			if len(rep.Epochs) != 12 {
				t.Fatalf("ran %d epochs, want 12", len(rep.Epochs))
			}
			if !rep.AllAuditOK {
				for _, er := range rep.Epochs {
					if !er.AuditOK {
						t.Fatalf("epoch %d failed audit: weight=%.3f fanout=%.3f", er.Epoch, er.WeightFactor, er.FanoutFactor)
					}
				}
			}
			if rep.TotalWarmFallbacks != 0 {
				t.Fatalf("%d warm starts fell back to a cold solve", rep.TotalWarmFallbacks)
			}
			if rep.TotalPathWarmFallbacks != 0 {
				t.Fatalf("%d path-LP warm starts fell back to a cold solve", rep.TotalPathWarmFallbacks)
			}
			for _, er := range rep.Epochs[1:] {
				if !er.LPWarm {
					t.Fatalf("epoch %d: main LP offered a basis %v, finished warm %v", er.Epoch, er.LPWarmOffered, er.LPWarm)
				}
			}
			t.Logf("%s: pivots=%d pathPivots=%d arcChurn=%d cost=%.1f",
				name, rep.TotalPivots, rep.TotalPathPivots, rep.TotalArcChurn, rep.TotalTrueCost)
		})
	}
}

// scrubWall zeroes the wall-clock fields (including the per-stage
// breakdown and the wall-derived quantile summaries), the only
// nondeterministic part of a report.
func scrubWall(rep *RunReport) {
	rep.TotalWallNS = 0
	rep.EpochWallQuantiles = WallQuantiles{}
	rep.StageWallQuantiles = nil
	for i := range rep.Epochs {
		rep.Epochs[i].WallNS = 0
		rep.Epochs[i].StageWallNS = nil
	}
}

// TestFlashCrowd50EpochAcceptance is the L-series acceptance gate: a
// 50-epoch flash crowd under a fixed seed must (1) run deterministically,
// (2) pass the audit every epoch under both policies, and (3) cost the
// warm+sticky policy at least 3x fewer total simplex pivots than cold
// re-solves of the same timeline.
func TestFlashCrowd50EpochAcceptance(t *testing.T) {
	sc := FlashCrowd(1, 50)
	reps, err := ComparePolicies(sc, []Policy{ColdPolicy(), WarmStickyPolicy()}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	cold, warm := reps[0], reps[1]
	for _, rep := range reps {
		if !rep.AllAuditOK {
			t.Fatalf("policy %s: not every epoch passed the audit", rep.Policy.Name)
		}
		if len(rep.Epochs) != 50 {
			t.Fatalf("policy %s: %d epochs", rep.Policy.Name, len(rep.Epochs))
		}
	}
	t.Logf("pivots: cold=%d warm=%d (%.1fx) | arc churn: cold=%d warm=%d | cost: cold=%.1f warm=%.1f",
		cold.TotalPivots, warm.TotalPivots, float64(cold.TotalPivots)/float64(warm.TotalPivots),
		cold.TotalArcChurn, warm.TotalArcChurn, cold.TotalTrueCost, warm.TotalTrueCost)
	if warm.TotalPivots*3 > cold.TotalPivots {
		t.Fatalf("warm+sticky pivots %d not >=3x cheaper than cold %d", warm.TotalPivots, cold.TotalPivots)
	}

	// Determinism: a rerun of the same timeline must agree exactly on every
	// field except wall time.
	again, err := Run(FlashCrowd(1, 50), Config{Policy: WarmStickyPolicy()})
	if err != nil {
		t.Fatal(err)
	}
	scrubWall(warm)
	scrubWall(again)
	if !reflect.DeepEqual(warm, again) {
		t.Fatal("re-running the same scenario+policy produced a different report")
	}
}

// TestChurnMonotoneInStickiness is the multi-epoch re-optimization property
// test: on a fixed timeline, total arc churn must be monotonically
// non-increasing as stickiness grows.
func TestChurnMonotoneInStickiness(t *testing.T) {
	sc := DiurnalWave(3, 16)
	prev := -1
	for _, s := range []float64{0, 0.3, 0.6} {
		rep, err := Run(sc, Config{Policy: Policy{Name: "s", Stickiness: s, WarmStart: true}})
		if err != nil {
			t.Fatal(err)
		}
		t.Logf("stickiness %.1f: arc churn %d (pivots %d)", s, rep.TotalArcChurn, rep.TotalPivots)
		if prev >= 0 && rep.TotalArcChurn > prev {
			t.Fatalf("churn increased with stickiness %.1f: %d > %d", s, rep.TotalArcChurn, prev)
		}
		prev = rep.TotalArcChurn
	}
}

// TestScenarioValidateRejectsBadEvents covers the validation surface.
func TestScenarioValidateRejectsBadEvents(t *testing.T) {
	sc := FlashCrowd(2, 10)
	sc.Events[0].Epoch = 99
	if err := sc.Validate(); err == nil {
		t.Fatal("out-of-horizon event accepted")
	}
	sc2 := FlashCrowd(2, 10)
	sc2.Events[0].Delta.SetThreshold[0].Sink = 10000
	if err := sc2.Validate(); err == nil {
		t.Fatal("out-of-range delta accepted")
	}
	sc3 := &Scenario{Name: "nobase", Epochs: 5}
	if _, err := Run(sc3, Config{Policy: ColdPolicy()}); err == nil {
		t.Fatal("scenario without base accepted")
	}
	// Out-of-range stickiness is rejected before any epoch is solved —
	// including by ComparePolicies, before running the earlier policies.
	bad := Policy{Name: "bad", Stickiness: 1.5, WarmStart: true}
	if _, err := Run(FlashCrowd(2, 10), Config{Policy: bad}); err == nil {
		t.Fatal("invalid stickiness accepted")
	}
	if _, err := ComparePolicies(FlashCrowd(2, 10), []Policy{ColdPolicy(), bad}, Config{}); err == nil {
		t.Fatal("invalid stickiness accepted by ComparePolicies")
	}
}

// TestRunReportJSONRoundTrip pins the -json schema: a report must survive a
// marshal/unmarshal round trip unchanged.
func TestRunReportJSONRoundTrip(t *testing.T) {
	sc := GradualRepricing(5, 6)
	rep, err := Run(sc, Config{Policy: WarmStickyPolicy(), SimPackets: 400, SimEvery: 3})
	if err != nil {
		t.Fatal(err)
	}
	data, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	var back RunReport
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(*rep, back) {
		t.Fatal("report changed across JSON round trip")
	}
	if !back.Epochs[0].SimRan || back.Epochs[1].SimRan {
		t.Fatal("SimEvery=3 must simulate epochs 0 and 3 only")
	}
}

// TestSessionCarriesDeployment checks the core re-solve loop surface the
// engine relies on: the session deploys each step's design and reports
// churn against it.
func TestSessionCarriesDeployment(t *testing.T) {
	sc := GradualRepricing(9, 4)
	sess := core.NewSession(core.DefaultOptions(9), 0.4, true)
	if sess.Deployed() != nil {
		t.Fatal("fresh session has a deployment")
	}
	in := sc.Base.Clone()
	res, err := sess.Step(in)
	if err != nil {
		t.Fatal(err)
	}
	if res.ArcChurn != 0 {
		t.Fatal("first step must report zero churn")
	}
	if sess.Deployed() == nil || sess.Steps() != 1 {
		t.Fatal("session did not deploy the first design")
	}
	for _, ev := range sc.Events {
		ds, err := ev.Delta.Apply(in)
		if err != nil {
			t.Fatal(err)
		}
		sess.Observe(ds)
	}
	if _, err := sess.Step(in); err != nil {
		t.Fatal(err)
	}
	if sess.Steps() != 2 {
		t.Fatalf("steps = %d", sess.Steps())
	}
}

// TestShardedLiveTimeline drives the live engine with a sharded solver:
// every epoch of a flash-crowd timeline re-provisions through the
// shard-partition/solve/coordinate pipeline, the per-shard warm state
// (partition + capacity split + simplex bases) carries across epochs under
// the warm policy, and every epoch's merged design still passes the
// paper's audit. The warm run must also spend fewer total pivots than an
// identical cold run — the whole point of carrying per-shard bases.
func TestShardedLiveTimeline(t *testing.T) {
	sc := FlashCrowd(3, 12)
	mk := func(p Policy) *RunReport {
		t.Helper()
		cfg := Config{Policy: p}
		cfg.Solver.Shards = 3
		rep, err := Run(sc, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if len(rep.Epochs) != 12 {
			t.Fatalf("policy %s ran %d epochs, want 12", p.Name, len(rep.Epochs))
		}
		if !rep.AllAuditOK {
			t.Fatalf("policy %s: some epoch failed the audit", p.Name)
		}
		return rep
	}
	cold := mk(ColdPolicy())
	warm := mk(WarmStickyPolicy())
	t.Logf("sharded timeline pivots: cold=%d warm=%d arcChurn: cold=%d warm=%d",
		cold.TotalPivots, warm.TotalPivots, cold.TotalArcChurn, warm.TotalArcChurn)
	if warm.TotalPivots >= cold.TotalPivots {
		t.Fatalf("warm sharded run spent %d pivots, cold spent %d — per-shard warm starts bought nothing",
			warm.TotalPivots, cold.TotalPivots)
	}
}
