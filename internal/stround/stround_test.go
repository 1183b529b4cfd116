package stround

import (
	"testing"

	"repro/internal/gen"
	"repro/internal/lp"
	"repro/internal/lpmodel"
	"repro/internal/netmodel"
	"repro/internal/round"
)

func roundedXBar(t *testing.T, in *netmodel.Instance, seed uint64) [][]float64 {
	t.Helper()
	fs, err := lpmodel.SolveLP(in, lpmodel.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	r := round.Apply(in, fs, round.DefaultOptions(seed))
	return r.XBar
}

func TestColorConstraintsRespectedWithinSlack(t *testing.T) {
	in := gen.Clustered(gen.DefaultClustered(2, 2, 3, 4), 7)
	xbar := roundedXBar(t, in, 3)
	res, err := Round(in, xbar, 5)
	if err != nil {
		t.Fatal(err)
	}
	if res.MaxColorExcess > 7 {
		t.Fatalf("color excess %d above additive bound 7", res.MaxColorExcess)
	}
	if res.MaxFanoutExcess > 7 {
		t.Fatalf("fanout excess %v above additive bound 7", res.MaxFanoutExcess)
	}
	if res.FracCost > 0 && res.FinalCost > 14*res.FracCost {
		t.Fatalf("cost %v above 14×%v", res.FinalCost, res.FracCost)
	}
}

func TestBoxCoverage(t *testing.T) {
	in := gen.Clustered(gen.DefaultClustered(2, 2, 2, 4), 11)
	xbar := roundedXBar(t, in, 9)
	res, err := Round(in, xbar, 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalBoxes == 0 {
		t.Fatal("expected boxes")
	}
	// The path LP should cover nearly all boxes on a feasible instance.
	if res.ServedBoxes < res.TotalBoxes*9/10 {
		t.Fatalf("served %d/%d boxes", res.ServedBoxes, res.TotalBoxes)
	}
}

func TestDeterministicGivenSeed(t *testing.T) {
	in := gen.Clustered(gen.DefaultClustered(1, 2, 2, 3), 2)
	xbar := roundedXBar(t, in, 4)
	a, err := Round(in, xbar, 10)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Round(in, xbar, 10)
	if err != nil {
		t.Fatal(err)
	}
	if a.FinalCost != b.FinalCost || a.ServedBoxes != b.ServedBoxes {
		t.Fatal("same seed must give same rounding")
	}
}

func TestEdgeCapsRespectedFractionally(t *testing.T) {
	in := gen.Uniform(gen.DefaultUniform(1, 4, 6), 3)
	in.EdgeCap = make([][]float64, in.NumReflectors)
	for i := range in.EdgeCap {
		in.EdgeCap[i] = make([]float64, in.NumSinks)
		for j := range in.EdgeCap[i] {
			in.EdgeCap[i][j] = 1
		}
	}
	// Forbid one arc entirely.
	in.EdgeCap[0][0] = 0
	xbar := roundedXBar(t, in, 6)
	res, err := Round(in, xbar, 2)
	if err != nil {
		t.Fatal(err)
	}
	if res.Serve[0][0] {
		t.Fatal("zero-capacity arc used")
	}
}

func TestEmptyXBar(t *testing.T) {
	in := gen.Uniform(gen.DefaultUniform(1, 2, 3), 1)
	xbar := make([][]float64, in.NumReflectors)
	for i := range xbar {
		xbar[i] = make([]float64, in.NumSinks)
	}
	res, err := Round(in, xbar, 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalBoxes != 0 {
		t.Fatal("no x̄ ⇒ no boxes")
	}
}

// TestWeightGuaranteeEndToEnd: the §6.5 path also inherits the §5 weight
// bound (each served box contributes its interval's weight): audit at the
// design level.
func TestWeightGuaranteeEndToEnd(t *testing.T) {
	for seed := uint64(1); seed <= 3; seed++ {
		in := gen.Clustered(gen.DefaultClustered(2, 2, 3, 4), seed)
		xbar := roundedXBar(t, in, seed*13)
		res, err := Round(in, xbar, seed)
		if err != nil {
			t.Fatal(err)
		}
		d := netmodel.NewDesign(in)
		for i := range res.Serve {
			copy(d.Serve[i], res.Serve[i])
		}
		d.Normalize(in)
		a := netmodel.AuditDesign(in, d)
		if a.WeightFactor < 0.25-1e-9 && res.ServedBoxes == res.TotalBoxes {
			t.Errorf("seed %d: weight factor %.4f < 1/4 with all boxes served", seed, a.WeightFactor)
		}
	}
}

// TestPathLPCarriedMatchesCold: on random clustered instances, a State
// carried from call to call — resumed while x̄ and the instance repeat,
// patched when a fanout moves, remapped when x̄ or the instance changes —
// reaches the cold optimum of every stage in fewer pivots than cold solves.
func TestPathLPCarriedMatchesCold(t *testing.T) {
	c := &PathChecker{T: t}
	defer SetProbe(c.Probe)()
	st := &State{}
	for seed := uint64(1); seed <= 12; seed++ {
		cc := gen.DefaultClustered(1+int(seed%2), 2+int(seed%3), 2+int(seed%2), 3+int(seed%4))
		in := gen.Clustered(cc, 100+seed)
		xbar := roundedXBar(t, in, seed)
		for call := uint64(0); call < 4; call++ {
			switch call {
			case 2:
				in.Fanout[0] *= 0.8
			case 3:
				xbar = roundedXBar(t, in, seed+100)
			}
			if _, err := st.Round(in, xbar, seed+call); err != nil {
				t.Fatal(err)
			}
		}
	}
	c.Check("random instances", true)
	if c.Calls[StartRemapped] == 0 {
		t.Fatal("no call remapped its carried LP")
	}
}

// TestStage2ColdWithoutStage1Basis: a stage 1 that returns no basis —
// simulated here by a probe that strips it — leaves stage 2 to solve cold,
// exactly as a plain cold solve of the stage-2 LP would.
func TestStage2ColdWithoutStage1Basis(t *testing.T) {
	var got, cold *lp.Solution
	restore := SetProbe(func(stage int, _ Start, _ *lp.Problem, sol *lp.Solution, fresh *lp.Problem) {
		if stage == 1 {
			if sol.Basis == nil {
				t.Fatal("stage 1 returned no basis to strip")
			}
			sol.Basis = nil
			return
		}
		var err error
		if cold, err = fresh.Solve(); err != nil {
			t.Fatal(err)
		}
		got = sol
	})
	in := gen.Clustered(gen.DefaultClustered(2, 2, 3, 4), 7)
	_, err := Round(in, roundedXBar(t, in, 3), 5)
	restore()
	if err != nil {
		t.Fatal(err)
	}
	if got == nil {
		t.Fatal("stage 2 did not run")
	}
	if got.Status != lp.Optimal || got.Objective != cold.Objective ||
		got.Iterations != cold.Iterations || got.Stats != cold.Stats {
		t.Fatalf("basis-less stage 2: %v %.17g in %d pivots %+v, cold %v %.17g in %d pivots %+v",
			got.Status, got.Objective, got.Iterations, got.Stats,
			cold.Status, cold.Objective, cold.Iterations, cold.Stats)
	}
}
