package lpmodel

// Warm-start tests on the actual overlay relaxations: warm-started
// re-solves must agree with cold ones. The sparse-versus-dense golden test
// on these relaxations lives in internal/lp (overlay_test.go), beside the
// dense reference solver.

import (
	"math"
	"testing"

	"repro/internal/gen"
	"repro/internal/lp"
	"repro/internal/netmodel"
)

// solveWarm builds in's relaxation and solves it warm-started from basis.
func solveWarm(in *netmodel.Instance, opts Options, basis *lp.Basis) (*FracSolution, error) {
	p, m := Build(in, opts)
	return SolveBuiltOpts(in, p, m, lp.Options{WarmStart: basis})
}

// TestWarmStartAcrossRebuiltModel: a basis captured from one SolveLP call
// must warm-start a freshly built model of the same instance (the shape is
// identical even though the Problem object is new) and reach the same
// optimum with almost no work.
func TestWarmStartAcrossRebuiltModel(t *testing.T) {
	in := gen.Uniform(gen.DefaultUniform(2, 6, 12), 12)
	opts := DefaultOptions()
	cold, err := SolveLP(in, opts)
	if err != nil {
		t.Fatal(err)
	}
	if cold.Basis == nil {
		t.Fatal("SolveLP returned nil basis")
	}
	warm, err := solveWarm(in, opts, cold.Basis)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(warm.Cost-cold.Cost) > 1e-6 {
		t.Fatalf("warm cost %.9f != cold cost %.9f", warm.Cost, cold.Cost)
	}
	if warm.Iterations > 2 {
		t.Fatalf("warm re-solve of the identical model took %d pivots", warm.Iterations)
	}
}

// TestWarmStartAfterCostScaling mirrors the Reoptimize workload at the
// lpmodel layer: discount some arc costs (stickiness) and re-solve warm.
func TestWarmStartAfterCostScaling(t *testing.T) {
	in := gen.Uniform(gen.DefaultUniform(2, 8, 20), 3)
	opts := DefaultOptions()
	base, err := SolveLP(in, opts)
	if err != nil {
		t.Fatal(err)
	}
	biased := in.Clone()
	for i := 0; i < biased.NumReflectors; i++ {
		for j := 0; j < biased.NumSinks; j++ {
			if (i+j)%2 == 0 {
				biased.RefSinkCost[i][j] *= 0.6
			}
		}
	}
	coldB, err := SolveLP(biased, opts)
	if err != nil {
		t.Fatal(err)
	}
	warmB, err := solveWarm(biased, opts, base.Basis)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(warmB.Cost-coldB.Cost) > 1e-6 {
		t.Fatalf("warm cost %.9f != cold cost %.9f", warmB.Cost, coldB.Cost)
	}
	if warmB.Iterations >= coldB.Iterations {
		t.Fatalf("warm start did not reduce pivots: warm=%d cold=%d", warmB.Iterations, coldB.Iterations)
	}
	t.Logf("cost-scaled re-solve: warm=%d cold=%d pivots", warmB.Iterations, coldB.Iterations)
}

// BenchmarkOverlayLPWarmVsCold measures the warm-start payoff on a
// cost-scaled re-solve (the churn workload).
func BenchmarkOverlayLPWarmVsCold(b *testing.B) {
	in := gen.Uniform(gen.DefaultUniform(2, 8, 20), 3)
	base, err := SolveLP(in, DefaultOptions())
	if err != nil {
		b.Fatal(err)
	}
	biased := in.Clone()
	for i := 0; i < biased.NumReflectors; i++ {
		for j := 0; j < biased.NumSinks; j++ {
			if (i+j)%2 == 0 {
				biased.RefSinkCost[i][j] *= 0.6
			}
		}
	}
	b.Run("warm", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := solveWarm(biased, DefaultOptions(), base.Basis); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("cold", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := SolveLP(biased, DefaultOptions()); err != nil {
				b.Fatal(err)
			}
		}
	})
}
