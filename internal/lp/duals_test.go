package lp

// Locks for the dual-value plumbing the decomposition layers build on:
// Solution.Duals must be the true shadow prices of the rows (validated on a
// hand-solved LP, by complementary slackness on random instances, and by
// finite-difference perturbation), and a carried factorization must be
// adopted only by the Problem that built it.

import (
	"math"
	"testing"
)

// TestSolutionDualsKnown checks the duals of a hand-solved LP:
//
//	min  −x1 − 2·x2   s.t.  x1 + x2 ≤ 4,  x2 ≤ 2,  x ≥ 0
//
// Optimum x = (2, 2), objective −6; both rows bind with y = (−1, −1)
// (pricing out the basic columns: −1 − y1 = 0 and −2 − y1 − y2 = 0).
func TestSolutionDualsKnown(t *testing.T) {
	p := NewProblem(2)
	p.SetObjectiveCoef(0, -1)
	p.SetObjectiveCoef(1, -2)
	r0 := p.AddConstraint(LE, 4, Coef{0, 1}, Coef{1, 1})
	r1 := p.AddConstraint(LE, 2, Coef{1, 1})
	sol, err := p.Solve()
	if err != nil || sol.Status != Optimal {
		t.Fatalf("%v %v", sol, err)
	}
	if math.Abs(sol.Objective+6) > 1e-9 {
		t.Fatalf("objective %g, want -6", sol.Objective)
	}
	y := sol.DualsFor([]int{r0, r1})
	if y == nil {
		t.Fatal("optimal sparse solve returned no duals")
	}
	if math.Abs(y[0]+1) > 1e-9 || math.Abs(y[1]+1) > 1e-9 {
		t.Fatalf("duals %v, want (-1, -1)", y)
	}
	// Out-of-range rows read as 0; nil-solution and dense solves return nil.
	if got := sol.DualsFor([]int{99, -1}); got[0] != 0 || got[1] != 0 {
		t.Fatalf("out-of-range duals %v, want zeros", got)
	}
	if dense := solveDense(p); dense.DualsFor([]int{r0}) != nil {
		t.Fatal("dense reference solver unexpectedly produced duals")
	}
	var nilSol *Solution
	if nilSol.DualsFor([]int{0}) != nil {
		t.Fatal("nil solution produced duals")
	}
}

// TestSolutionDualsComplementarySlackness checks, across random covering
// LPs, the optimality certificate the duals must satisfy: sign-correct row
// prices (≥ rows of a minimization price ≥ 0), complementary slackness
// (nonbinding rows price at 0), and dual-feasible structural reduced costs
// against the bound each variable sits at.
func TestSolutionDualsComplementarySlackness(t *testing.T) {
	for trial := 0; trial < 20; trial++ {
		p := randomCovering(uint64(5000 + trial))
		sol, err := p.Solve()
		if err != nil || sol.Status != Optimal {
			t.Fatalf("trial %d: %v %v", trial, sol.Status, err)
		}
		if len(sol.Duals) != p.NumRows() {
			t.Fatalf("trial %d: %d duals for %d rows", trial, len(sol.Duals), p.NumRows())
		}
		const tol = 1e-7
		for r := 0; r < p.NumRows(); r++ {
			yr := sol.Duals[r]
			if yr < -tol {
				t.Fatalf("trial %d row %d: GE row priced %g < 0", trial, r, yr)
			}
			act := 0.0
			for k := 0; k < p.RowLen(r); k++ {
				c := p.RowCoef(r, k)
				act += c.Val * sol.X[c.Var]
			}
			_, rhs := p.RHS(r)
			if slack := act - rhs; math.Abs(yr*slack) > 1e-5 {
				t.Fatalf("trial %d row %d: y=%g with slack %g violates complementary slackness", trial, r, yr, slack)
			}
		}
		// Reduced costs d_j = c_j − y·a_j: ≥ 0 at the lower bound, ≤ 0 at
		// the upper, ≈ 0 for basic columns.
		red := make([]float64, p.NumVars())
		for j := range red {
			red[j] = p.ObjectiveCoef(j)
		}
		for r := 0; r < p.NumRows(); r++ {
			for k := 0; k < p.RowLen(r); k++ {
				c := p.RowCoef(r, k)
				red[c.Var] -= sol.Duals[r] * c.Val
			}
		}
		for j := 0; j < p.NumVars(); j++ {
			lo, hi := p.Bounds(j)
			switch {
			case sol.Basis.ColStat[j] == BasisBasic:
				if math.Abs(red[j]) > 1e-6 {
					t.Fatalf("trial %d var %d: basic column has reduced cost %g", trial, j, red[j])
				}
			case math.Abs(sol.X[j]-lo) < 1e-9:
				if red[j] < -1e-6 {
					t.Fatalf("trial %d var %d: at lower bound with reduced cost %g", trial, j, red[j])
				}
			case math.Abs(sol.X[j]-hi) < 1e-9:
				if red[j] > 1e-6 {
					t.Fatalf("trial %d var %d: at upper bound with reduced cost %g", trial, j, red[j])
				}
			}
		}
	}
}

// TestSolutionDualsShadowPrice checks the marginal interpretation by finite
// difference: relaxing a binding row's rhs by ε must move the optimum by
// ≈ y_r·ε (the perturbation is small enough to keep the optimal basis).
func TestSolutionDualsShadowPrice(t *testing.T) {
	p := randomCovering(6101)
	sol, err := p.Solve()
	if err != nil || sol.Status != Optimal {
		t.Fatalf("%v %v", sol.Status, err)
	}
	const eps = 1e-5
	checked := 0
	for r := 0; r < p.NumRows() && checked < 5; r++ {
		if math.Abs(sol.Duals[r]) < 1e-6 {
			continue
		}
		_, rhs := p.RHS(r)
		p.SetRHS(r, rhs+eps)
		bumped, err := p.Solve()
		p.SetRHS(r, rhs)
		if err != nil || bumped.Status != Optimal {
			t.Fatalf("row %d bump: %v %v", r, bumped.Status, err)
		}
		got := (bumped.Objective - sol.Objective) / eps
		if math.Abs(got-sol.Duals[r]) > 1e-3*(1+math.Abs(sol.Duals[r])) {
			t.Fatalf("row %d: finite-difference price %g != dual %g", r, got, sol.Duals[r])
		}
		checked++
	}
	if checked == 0 {
		t.Fatal("no binding row with a nonzero dual to check")
	}
}

// TestCarriedFactorizationRefusedByOtherProblem: a Problem rebuilt from the
// same data has the identical matrix but is a different Problem, so a warm
// start carrying the original's factorization must not adopt it. The
// install refactorizes the carried basis, and the solve lands on the cold
// solve's optimum: objective, primal point and duals.
func TestCarriedFactorizationRefusedByOtherProblem(t *testing.T) {
	near := func(a, b float64) bool { return math.Abs(a-b) <= 1e-9*(1+math.Abs(b)) }
	for trial := 0; trial < 10; trial++ {
		seed := uint64(7100 + trial)
		first, err := randomCovering(seed).Solve()
		if err != nil || first.Status != Optimal {
			t.Fatalf("trial %d: %v %v", trial, first.Status, err)
		}
		cold, err := randomCovering(seed).Solve()
		if err != nil || cold.Status != Optimal {
			t.Fatalf("trial %d: cold %v %v", trial, cold.Status, err)
		}
		warm, err := randomCovering(seed).SolveOpts(Options{WarmStart: first.Basis})
		if err != nil || warm.Status != Optimal {
			t.Fatalf("trial %d: warm %v %v", trial, warm.Status, err)
		}
		if warm.Stats.FTUpdates != 0 {
			t.Fatalf("trial %d: another Problem adopted the carried factorization", trial)
		}
		if warm.Stats.Refactorizations < 1 {
			t.Fatalf("trial %d: refused adoption did not refactorize", trial)
		}
		if !near(warm.Objective, cold.Objective) {
			t.Fatalf("trial %d: objective %.17g, cold %.17g", trial, warm.Objective, cold.Objective)
		}
		for j := range cold.X {
			if !near(warm.X[j], cold.X[j]) {
				t.Fatalf("trial %d: x[%d] = %.17g, cold %.17g", trial, j, warm.X[j], cold.X[j])
			}
		}
		for r := range cold.Duals {
			if !near(warm.Duals[r], cold.Duals[r]) {
				t.Fatalf("trial %d: dual[%d] = %.17g, cold %.17g", trial, r, warm.Duals[r], cold.Duals[r])
			}
		}
	}
}
