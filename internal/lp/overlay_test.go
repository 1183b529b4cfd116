package lp_test

// Golden tests for the sparse revised simplex on the actual overlay
// relaxations: every instance family must reproduce the dense reference
// solver's optimum within 1e-6.

import (
	"math"
	"testing"

	"repro/internal/gen"
	"repro/internal/lp"
	"repro/internal/lpmodel"
	"repro/internal/netmodel"
)

// overlayFixtures returns the instance set the golden comparisons run on:
// uniform shapes across sizes, a clustered instance with §6.4 colors, and
// a bandwidth-heterogeneous one.
func overlayFixtures() []*netmodel.Instance {
	return []*netmodel.Instance{
		gen.Uniform(gen.DefaultUniform(1, 4, 8), 11),
		gen.Uniform(gen.DefaultUniform(2, 6, 12), 12),
		gen.Uniform(gen.DefaultUniform(2, 8, 20), 3), // the T7 benchmark instance
		gen.Uniform(gen.DefaultUniform(3, 10, 28), 13),
		gen.Clustered(gen.DefaultClustered(2, 2, 2, 4), 5),
	}
}

func TestSparseMatchesDenseOnOverlayLPs(t *testing.T) {
	for fi, in := range overlayFixtures() {
		opts := lpmodel.DefaultOptions()
		p, _ := lpmodel.Build(in, opts)
		sparse, err := p.Solve()
		if err != nil {
			t.Fatalf("fixture %d: sparse: %v", fi, err)
		}
		pd, _ := lpmodel.Build(in, opts)
		dense := lp.SolveDense(pd)
		if sparse.Status != lp.Optimal || dense.Status != lp.Optimal {
			t.Fatalf("fixture %d: status sparse=%v dense=%v", fi, sparse.Status, dense.Status)
		}
		if math.Abs(sparse.Objective-dense.Objective) > 1e-6 {
			t.Fatalf("fixture %d: sparse %.9f != dense %.9f", fi, sparse.Objective, dense.Objective)
		}
		if err := p.CheckFeasible(sparse.X, 1e-6); err != nil {
			t.Fatalf("fixture %d: sparse point infeasible: %v", fi, err)
		}
	}
}

// BenchmarkOverlayLPSparseVsDense compares the solvers on the §2
// relaxation of the T7 benchmark instance (the acceptance workload).
func BenchmarkOverlayLPSparseVsDense(b *testing.B) {
	in := gen.Uniform(gen.DefaultUniform(2, 8, 20), 3)
	b.Run("sparse", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			p, _ := lpmodel.Build(in, lpmodel.DefaultOptions())
			if _, err := p.Solve(); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("dense", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			p, _ := lpmodel.Build(in, lpmodel.DefaultOptions())
			lp.SolveDense(p)
		}
	})
}
