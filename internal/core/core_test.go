package core

import (
	"testing"

	"repro/internal/agg"
	"repro/internal/gen"
	"repro/internal/lp"
	"repro/internal/lpmodel"
	"repro/internal/netmodel"
)

func TestSolveSmallUniform(t *testing.T) {
	in := gen.Uniform(gen.DefaultUniform(2, 6, 12), 3)
	res, err := Solve(in, DefaultOptions(1))
	if err != nil {
		t.Fatal(err)
	}
	a := res.Audit
	t.Logf("audit: %v  lp=%.4f ratio=%.3f retries=%d", a, res.LPCost, res.ApproxRatio(), res.Retries)
	if !a.StructureOK {
		t.Fatal("structure constraints (1),(2) violated")
	}
	if a.WeightFactor < 0.25-1e-9 {
		t.Fatalf("weight factor %.4f below paper guarantee 1/4", a.WeightFactor)
	}
	if a.FanoutFactor > 4+1e-9 {
		t.Fatalf("fanout factor %.4f above paper guarantee 4", a.FanoutFactor)
	}
	if res.Audit.Cost < res.LPCost-1e-6 {
		t.Fatalf("integral cost %.4f below LP bound %.4f: impossible", res.Audit.Cost, res.LPCost)
	}
}

func TestSolveClusteredWithColors(t *testing.T) {
	in := gen.Clustered(gen.DefaultClustered(2, 2, 2, 4), 5)
	res, err := Solve(in, DefaultOptions(2))
	if err != nil {
		t.Fatal(err)
	}
	if !res.PathRounding {
		t.Fatal("colored instance must take the §6.5 path-rounding branch")
	}
	t.Logf("audit: %v  boxes=%d/%d", res.Audit, res.STResult.ServedBoxes, res.STResult.TotalBoxes)
	if res.Audit.ColorExcess > 7 {
		t.Fatalf("color excess %d above §6.5 additive bound 7", res.Audit.ColorExcess)
	}
}

// TestLPRelaxationMatchesSolve locks the LP relaxation on its own to the LP
// the pipeline solves: lpmodel.Build followed by SolveBuiltOpts, and SolveLP,
// on the instance a monolithic Solve solves (the aggregate plane of agg.Build
// with the same Config when aggregated) report Solve's LP cost, pivots and
// size bit for bit. This is what keeps `overlaysolve -lp-only` printing the
// bound a full solve reports.
func TestLPRelaxationMatchesSolve(t *testing.T) {
	clustered := gen.Clustered(gen.DefaultClustered(2, 3, 2, 8), 9)
	for _, tc := range []struct {
		name string
		in   *netmodel.Instance
		cfg  *agg.Config
	}{
		{"flat-uniform", gen.Uniform(gen.DefaultUniform(1, 4, 6), 9), nil},
		{"flat-clustered", clustered, nil},
		{"aggregate", clustered, &agg.Config{}},
		{"aggregate-colo", clustered, &agg.Config{GroupOf: agg.ColoGroups(clustered, 2)}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			plane, opts := tc.in, DefaultOptions(1)
			if tc.cfg != nil {
				fold, err := agg.Build(tc.in, *tc.cfg)
				if err != nil {
					t.Fatal(err)
				}
				plane, opts.Aggregate = fold.Agg, tc.cfg
			}
			p, m := lpmodel.Build(plane, lpmodel.DefaultOptions(plane))
			frac, err := lpmodel.SolveBuiltOpts(plane, p, m, lp.Options{})
			if err != nil {
				t.Fatal(err)
			}
			one, err := lpmodel.SolveLP(plane, lpmodel.DefaultOptions(plane))
			if err != nil {
				t.Fatal(err)
			}
			res, err := Solve(tc.in, opts)
			if err != nil {
				t.Fatal(err)
			}
			if res.LPCost <= 0 || res.Frac == nil {
				t.Fatalf("Solve: LP cost %v, Frac %v; want a positive monolithic LP", res.LPCost, res.Frac)
			}
			got := [4]float64{frac.Cost, float64(frac.Iterations), float64(p.NumVars()), float64(p.NumRows())}
			want := [4]float64{res.LPCost, float64(res.LPPivots), float64(res.LPVars), float64(res.LPRows)}
			if got != want {
				t.Fatalf("Build+SolveBuiltOpts (cost, pivots, vars, rows) %v, Solve %v", got, want)
			}
			if one.Cost != frac.Cost || one.Iterations != frac.Iterations {
				t.Fatalf("SolveLP cost %v in %d pivots, Build+SolveBuiltOpts %v in %d",
					one.Cost, one.Iterations, frac.Cost, frac.Iterations)
			}
		})
	}
}

func TestInfeasibleInstanceReported(t *testing.T) {
	// A sink demanding more reliability than all reflectors together can
	// deliver: every path loses 50%, threshold 1-1e-9 needs enormous
	// weight.
	in := netmodel.NewZeroInstance(1, 2, 1)
	for i := 0; i < 2; i++ {
		in.ReflectorCost[i] = 1
		in.Fanout[i] = 1
		in.SrcRefLoss[0][i] = 0.5
		in.RefSinkLoss[i][0] = 0.5
	}
	in.Threshold[0] = 1 - 1e-9
	if _, err := Solve(in, DefaultOptions(1)); err == nil {
		t.Fatal("expected infeasibility error")
	}
}
