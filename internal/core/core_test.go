package core

import (
	"slices"
	"testing"

	"repro/internal/agg"
	"repro/internal/gen"
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

// TestLPOnly stops after the LP relaxation: no design, a positive LP cost,
// and the LP stages alone — behind the aggregate stage when aggregated,
// where Shards does not change the path (LPOnly wants the monolithic LP).
func TestLPOnly(t *testing.T) {
	clustered := gen.Clustered(gen.DefaultClustered(2, 3, 2, 8), 9)
	for _, tc := range []struct {
		name   string
		in     *netmodel.Instance
		opts   Options
		stages []string
	}{
		{"flat", gen.Uniform(gen.DefaultUniform(1, 4, 6), 9), Options{Seed: 1, LPOnly: true}, []string{"lp-build", "lp-solve"}},
		{"aggregate", clustered, Options{Seed: 1, LPOnly: true, Aggregate: &agg.Config{}}, []string{"aggregate", "lp-build", "lp-solve"}},
		{"aggregate-shards-3", clustered, Options{Seed: 1, LPOnly: true, Aggregate: &agg.Config{}, Shards: 3}, []string{"aggregate", "lp-build", "lp-solve"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			res, err := Solve(tc.in, tc.opts)
			if err != nil {
				t.Fatal(err)
			}
			if res.Design != nil {
				t.Fatal("LPOnly must not produce a design")
			}
			if res.LPCost <= 0 {
				t.Fatalf("LP cost %v, want positive", res.LPCost)
			}
			if got := StageNames(res); !slices.Equal(got, tc.stages) {
				t.Fatalf("stages %v, want %v", got, tc.stages)
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
