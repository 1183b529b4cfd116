package lp

import (
	"math"
	"strings"
	"testing"

	"repro/internal/stats"
)

func almostEq(a, b, tol float64) bool {
	return math.Abs(a-b) <= tol
}

func solveOptimal(t *testing.T, p *Problem) *Solution {
	t.Helper()
	sol, err := p.Solve()
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	if sol.Status != Optimal {
		t.Fatalf("status = %v, want optimal", sol.Status)
	}
	if err := p.CheckFeasible(sol.X, 1e-6); err != nil {
		t.Fatalf("returned point infeasible: %v", err)
	}
	return sol
}

func TestSimpleLP(t *testing.T) {
	// max x+y s.t. x+2y<=4, 3x+y<=6, x,y>=0  -> min -(x+y)
	// Optimum at intersection: x=8/5, y=6/5, value 14/5.
	p := NewProblem(2)
	p.SetObjectiveCoef(0, -1)
	p.SetObjectiveCoef(1, -1)
	p.AddConstraint(LE, 4, Coef{0, 1}, Coef{1, 2})
	p.AddConstraint(LE, 6, Coef{0, 3}, Coef{1, 1})
	sol := solveOptimal(t, p)
	if !almostEq(sol.Objective, -14.0/5, 1e-8) {
		t.Fatalf("objective = %v, want -2.8", sol.Objective)
	}
	if !almostEq(sol.X[0], 1.6, 1e-8) || !almostEq(sol.X[1], 1.2, 1e-8) {
		t.Fatalf("x = %v, want [1.6 1.2]", sol.X)
	}
}

func TestEqualityAndGE(t *testing.T) {
	// min 2x+3y s.t. x+y=10, x>=3, y>=2 (as GE rows), x,y>=0.
	// Optimum: maximize x (cheaper): x=8, y=2, cost 22.
	p := NewProblem(2)
	p.SetObjectiveCoef(0, 2)
	p.SetObjectiveCoef(1, 3)
	p.AddConstraint(EQ, 10, Coef{0, 1}, Coef{1, 1})
	p.AddConstraint(GE, 3, Coef{0, 1})
	p.AddConstraint(GE, 2, Coef{1, 1})
	sol := solveOptimal(t, p)
	if !almostEq(sol.Objective, 22, 1e-8) {
		t.Fatalf("objective = %v, want 22", sol.Objective)
	}
}

func TestBoundedVariables(t *testing.T) {
	// min -x-2y with 0<=x<=1, 0<=y<=1, x+y<=1.5.
	// Optimum y=1, x=0.5, value -2.5.
	p := NewProblem(2)
	p.SetObjectiveCoef(0, -1)
	p.SetObjectiveCoef(1, -2)
	p.SetBounds(0, 0, 1)
	p.SetBounds(1, 0, 1)
	p.AddConstraint(LE, 1.5, Coef{0, 1}, Coef{1, 1})
	sol := solveOptimal(t, p)
	if !almostEq(sol.Objective, -2.5, 1e-8) {
		t.Fatalf("objective = %v, want -2.5", sol.Objective)
	}
}

func TestShiftedLowerBounds(t *testing.T) {
	// min x+y with x>=2, y in [3,5], x+y>=7 -> x=2,y=5 or x=4,y=3: both 7.
	p := NewProblem(2)
	p.SetObjectiveCoef(0, 1)
	p.SetObjectiveCoef(1, 1)
	p.SetBounds(0, 2, math.Inf(1))
	p.SetBounds(1, 3, 5)
	p.AddConstraint(GE, 7, Coef{0, 1}, Coef{1, 1})
	sol := solveOptimal(t, p)
	if !almostEq(sol.Objective, 7, 1e-8) {
		t.Fatalf("objective = %v, want 7", sol.Objective)
	}
}

func TestInfeasible(t *testing.T) {
	p := NewProblem(1)
	p.SetBounds(0, 0, 1)
	p.AddConstraint(GE, 2, Coef{0, 1})
	sol, err := p.Solve()
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	if sol.Status != Infeasible {
		t.Fatalf("status = %v, want infeasible", sol.Status)
	}
}

func TestInfeasibleEqualitySystem(t *testing.T) {
	// x+y=1 and x+y=2 simultaneously.
	p := NewProblem(2)
	p.AddConstraint(EQ, 1, Coef{0, 1}, Coef{1, 1})
	p.AddConstraint(EQ, 2, Coef{0, 1}, Coef{1, 1})
	sol, err := p.Solve()
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	if sol.Status != Infeasible {
		t.Fatalf("status = %v, want infeasible", sol.Status)
	}
}

func TestUnbounded(t *testing.T) {
	// min -x, x>=0 free above.
	p := NewProblem(1)
	p.SetObjectiveCoef(0, -1)
	p.AddConstraint(GE, 0, Coef{0, 1})
	sol, err := p.Solve()
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	if sol.Status != Unbounded {
		t.Fatalf("status = %v, want unbounded", sol.Status)
	}
}

func TestDegenerateLP(t *testing.T) {
	// A classically degenerate LP (multiple constraints through the same
	// vertex). Beale-like cycling example; Bland fallback must save us.
	p := NewProblem(4)
	obj := []float64{-0.75, 150, -0.02, 6}
	for j, v := range obj {
		p.SetObjectiveCoef(j, v)
	}
	p.AddConstraint(LE, 0, Coef{0, 0.25}, Coef{1, -60}, Coef{2, -0.04}, Coef{3, 9})
	p.AddConstraint(LE, 0, Coef{0, 0.5}, Coef{1, -90}, Coef{2, -0.02}, Coef{3, 3})
	p.AddConstraint(LE, 1, Coef{2, 1})
	sol := solveOptimal(t, p)
	if !almostEq(sol.Objective, -0.05, 1e-8) {
		t.Fatalf("objective = %v, want -0.05", sol.Objective)
	}
}

func TestNegativeRHS(t *testing.T) {
	// Rows with negative rhs exercise the artificial-variable paths.
	// min x s.t. -x <= -3  (i.e. x >= 3).
	p := NewProblem(1)
	p.SetObjectiveCoef(0, 1)
	p.AddConstraint(LE, -3, Coef{0, -1})
	sol := solveOptimal(t, p)
	if !almostEq(sol.X[0], 3, 1e-8) {
		t.Fatalf("x = %v, want 3", sol.X[0])
	}
}

func TestEqualityNegativeRHS(t *testing.T) {
	p := NewProblem(2)
	p.SetObjectiveCoef(0, 1)
	p.SetObjectiveCoef(1, 1)
	p.AddConstraint(EQ, -2, Coef{0, -1}, Coef{1, -1})
	sol := solveOptimal(t, p)
	if !almostEq(sol.Objective, 2, 1e-8) {
		t.Fatalf("objective = %v, want 2", sol.Objective)
	}
}

func TestDuplicateCoefficientsSummed(t *testing.T) {
	// Same variable appearing twice in a row must sum: (1+1)x <= 4.
	p := NewProblem(1)
	p.SetObjectiveCoef(0, -1)
	p.SetBounds(0, 0, 10)
	p.AddConstraint(LE, 4, Coef{0, 1}, Coef{0, 1})
	sol := solveOptimal(t, p)
	if !almostEq(sol.X[0], 2, 1e-8) {
		t.Fatalf("x = %v, want 2", sol.X[0])
	}
}

func TestFixedVariable(t *testing.T) {
	// lo == hi pins the variable.
	p := NewProblem(2)
	p.SetObjectiveCoef(0, 1)
	p.SetObjectiveCoef(1, 1)
	p.SetBounds(0, 2.5, 2.5)
	p.AddConstraint(GE, 4, Coef{0, 1}, Coef{1, 1})
	sol := solveOptimal(t, p)
	if !almostEq(sol.X[0], 2.5, 1e-9) || !almostEq(sol.Objective, 4, 1e-8) {
		t.Fatalf("x=%v obj=%v, want x0=2.5 obj=4", sol.X, sol.Objective)
	}
}

func TestEmptyBoundRangeRejected(t *testing.T) {
	p := NewProblem(1)
	p.SetBounds(0, 1, 0)
	if _, err := p.Solve(); err == nil {
		t.Fatal("expected error for empty bound range")
	}
}

// TestRandomLPsAgainstVertexEnumeration cross-checks the simplex against a
// brute-force enumeration of basic feasible points for small random box-
// constrained LPs. Every variable is bounded, so the optimum is attained at
// a point where n linearly independent constraints (rows or bounds) are
// tight; we enumerate all candidate tight sets.
func TestRandomLPsAgainstVertexEnumeration(t *testing.T) {
	rng := stats.NewRNG(7)
	const nVars = 3
	for trial := 0; trial < 120; trial++ {
		p := NewProblem(nVars)
		for j := 0; j < nVars; j++ {
			p.SetObjectiveCoef(j, rng.Range(-2, 2))
			p.SetBounds(j, 0, rng.Range(0.5, 2))
		}
		nRows := 2 + rng.Intn(3)
		var rows []rowRec
		for r := 0; r < nRows; r++ {
			a := make([]float64, nVars)
			coefs := make([]Coef, nVars)
			for j := 0; j < nVars; j++ {
				a[j] = rng.Range(-1, 1)
				coefs[j] = Coef{j, a[j]}
			}
			rel := LE
			if rng.Bernoulli(0.3) {
				rel = GE
			}
			rhs := rng.Range(-0.5, 1.5)
			rows = append(rows, rowRec{a, rel, rhs})
			p.AddConstraint(rel, rhs, coefs...)
		}
		sol, err := p.Solve()
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		best, found := bruteForceOptimum(p, rows, nVars)
		if sol.Status == Infeasible {
			if found {
				t.Fatalf("trial %d: simplex says infeasible but brute force found %v", trial, best)
			}
			continue
		}
		if sol.Status != Optimal {
			t.Fatalf("trial %d: status %v", trial, sol.Status)
		}
		if err := p.CheckFeasible(sol.X, 1e-6); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if !found {
			t.Fatalf("trial %d: simplex found optimum %v but brute force found nothing", trial, sol.Objective)
		}
		if sol.Objective > best+1e-6 {
			t.Fatalf("trial %d: simplex %.9f worse than brute force %.9f", trial, sol.Objective, best)
		}
		if sol.Objective < best-1e-6 {
			t.Fatalf("trial %d: simplex %.9f better than brute force %.9f (enumeration bug?)", trial, sol.Objective, best)
		}
	}
}

type rowRec struct {
	a   []float64
	rel Rel
	rhs float64
}

type plane struct {
	a   []float64
	rhs float64
}

// bruteForceOptimum enumerates candidate vertices: all choices of nVars
// tight hyperplanes among rows (as equalities) and variable bounds, solves
// the tiny linear system, keeps feasible points, returns the best objective.
func bruteForceOptimum(p *Problem, rows []rowRec, nVars int) (float64, bool) {
	// Build the pool of hyperplanes: each row, and each bound.
	var planes []plane
	for _, r := range rows {
		planes = append(planes, plane{r.a, r.rhs})
	}
	for j := 0; j < nVars; j++ {
		lo := make([]float64, nVars)
		lo[j] = 1
		planes = append(planes, plane{lo, p.lo[j]})
		hi := make([]float64, nVars)
		hi[j] = 1
		planes = append(planes, plane{hi, p.hi[j]})
	}
	best := math.Inf(1)
	found := false
	n := len(planes)
	idx := make([]int, nVars)
	var rec func(start, k int)
	rec = func(start, k int) {
		if k == nVars {
			x, ok := solve3(planes, idx, nVars)
			if !ok {
				return
			}
			if p.CheckFeasible(x, 1e-7) != nil {
				return
			}
			obj := 0.0
			for j := 0; j < nVars; j++ {
				obj += p.obj[j] * x[j]
			}
			if obj < best {
				best = obj
				found = true
			}
			return
		}
		for i := start; i < n; i++ {
			idx[k] = i
			rec(i+1, k+1)
		}
	}
	rec(0, 0)
	return best, found
}

// solve3 solves the nVars×nVars system given by the selected planes via
// Gaussian elimination with partial pivoting.
func solve3(planes []plane, idx []int, n int) ([]float64, bool) {
	A := make([][]float64, n)
	b := make([]float64, n)
	for r := 0; r < n; r++ {
		A[r] = append([]float64(nil), planes[idx[r]].a...)
		b[r] = planes[idx[r]].rhs
	}
	for col := 0; col < n; col++ {
		piv, pv := -1, 1e-9
		for r := col; r < n; r++ {
			if a := math.Abs(A[r][col]); a > pv {
				piv, pv = r, a
			}
		}
		if piv < 0 {
			return nil, false
		}
		A[col], A[piv] = A[piv], A[col]
		b[col], b[piv] = b[piv], b[col]
		inv := 1 / A[col][col]
		for j := col; j < n; j++ {
			A[col][j] *= inv
		}
		b[col] *= inv
		for r := 0; r < n; r++ {
			if r == col || A[r][col] == 0 {
				continue
			}
			f := A[r][col]
			for j := col; j < n; j++ {
				A[r][j] -= f * A[col][j]
			}
			b[r] -= f * b[col]
		}
	}
	return b, true
}

// TestRandomFeasibleNeverBeatsSimplex: generate random LPs with a known
// feasible region, sample many random feasible points, and check none beats
// the simplex optimum. Catches premature-optimality bugs at larger sizes
// than the vertex enumeration can handle.
func TestRandomFeasibleNeverBeatsSimplex(t *testing.T) {
	rng := stats.NewRNG(99)
	for trial := 0; trial < 40; trial++ {
		nVars := 4 + rng.Intn(5)
		p := NewProblem(nVars)
		for j := 0; j < nVars; j++ {
			p.SetObjectiveCoef(j, rng.Range(-3, 3))
			p.SetBounds(j, 0, 1)
		}
		// Constraints of the form Σ a_j x_j <= b with b generous enough
		// that x=0 is feasible, plus a covering row keeping it bounded
		// away from triviality: Σ x_j >= 1.
		nRows := 3 + rng.Intn(4)
		for r := 0; r < nRows; r++ {
			coefs := make([]Coef, nVars)
			for j := 0; j < nVars; j++ {
				coefs[j] = Coef{j, rng.Range(0, 1)}
			}
			p.AddConstraint(LE, rng.Range(1, float64(nVars)), coefs...)
		}
		cover := make([]Coef, nVars)
		for j := 0; j < nVars; j++ {
			cover[j] = Coef{j, 1}
		}
		p.AddConstraint(GE, 1, cover...)
		sol, err := p.Solve()
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if sol.Status == Infeasible {
			continue
		}
		if sol.Status != Optimal {
			t.Fatalf("trial %d: status %v", trial, sol.Status)
		}
		for probe := 0; probe < 300; probe++ {
			x := make([]float64, nVars)
			for j := range x {
				x[j] = rng.Float64()
			}
			if p.CheckFeasible(x, 0) != nil {
				continue
			}
			obj := 0.0
			for j := range x {
				obj += p.obj[j] * x[j]
			}
			if obj < sol.Objective-1e-7 {
				t.Fatalf("trial %d: random feasible point %.9f beats simplex %.9f", trial, obj, sol.Objective)
			}
		}
	}
}

func TestIterationLimit(t *testing.T) {
	p := NewProblem(2)
	p.SetObjectiveCoef(0, -1)
	p.SetBounds(0, 0, 1)
	p.SetBounds(1, 0, 1)
	p.AddConstraint(LE, 1.5, Coef{0, 1}, Coef{1, 1})
	sol, err := p.SolveOpts(Options{maxIters: 1})
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	// With a 1-iteration budget we may or may not reach optimality, but
	// the call must not hang or panic, and status must be sane.
	if sol.Status != Optimal && sol.Status != IterLimit {
		t.Fatalf("status = %v", sol.Status)
	}
}

// TestIterationLimitNoRetry: IterLimit from an exhausted pivot budget must
// be returned as-is, without a second attempt — re-burning the whole budget
// on a re-solve would double every deliberately budget-capped solve.
func TestIterationLimitNoRetry(t *testing.T) {
	const n = 12
	p := NewProblem(n)
	for j := 0; j < n; j++ {
		p.SetObjectiveCoef(j, -1-0.01*float64(j))
		p.SetBounds(j, 0, 1)
		p.AddConstraint(LE, 0.75, Coef{j, 1})
	}
	full, err := p.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if full.Status != Optimal || full.Iterations <= 4 {
		t.Fatalf("want a multi-pivot optimal baseline, got %v after %d iters", full.Status, full.Iterations)
	}
	const budget = 2
	sol, err := p.SolveOpts(Options{maxIters: budget})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != IterLimit {
		t.Fatalf("status = %v, want iteration-limit", sol.Status)
	}
	if sol.Iterations > budget {
		t.Fatalf("spent %d pivots on a %d-pivot budget — the exhausted solve must not retry", sol.Iterations, budget)
	}
}

// TestColdOptimumFailingAuditIsAnError: the cold attempt is the last one, so
// an optimum that fails the feasibility audit must come back as an error
// wrapping the audit's verdict, with no Solution — never as Optimal. The
// audit judges the rows while the simplex reads the CSC cache, so
// corrupting one cached entry makes the solver's optimum violate the row
// it was built from. A warm start that refactorizes the corrupted matrix
// fails the same audit and falls back to the same cold attempt.
func TestColdOptimumFailingAuditIsAnError(t *testing.T) {
	p := NewProblem(2)
	p.SetObjectiveCoef(0, 1)
	p.SetObjectiveCoef(1, 3)
	p.SetBounds(0, 0, 10)
	p.SetBounds(1, 0, 10)
	p.AddConstraint(GE, 1, Coef{0, 1}, Coef{1, 1})
	good, err := p.Solve()
	if err != nil || good.Status != Optimal || math.Abs(good.X[0]-1) > 1e-12 {
		t.Fatalf("uncorrupted solve: %v %v", good, err)
	}
	p.csc.val[0] = 2 // entry (row 0, column 0): the simplex now sees 2·x0 + x1 ≥ 1
	for _, opts := range []Options{{}, {WarmStart: good.Basis, RefactorOnInstall: true}} {
		sol, err := p.SolveOpts(opts)
		if sol != nil {
			t.Fatalf("warm=%v: got a %v Solution at x=%v, want none", opts.WarmStart != nil, sol.Status, sol.X)
		}
		if err == nil || !strings.Contains(err.Error(), "feasibility audit") || !strings.Contains(err.Error(), "lp: row 0: 0.5 < rhs 1") {
			t.Fatalf("warm=%v: error %v, want the audit's verdict on row 0", opts.WarmStart != nil, err)
		}
	}
}

func TestSolutionStatusString(t *testing.T) {
	for s, want := range map[Status]string{Optimal: "optimal", Infeasible: "infeasible", Unbounded: "unbounded", IterLimit: "iteration-limit"} {
		if s.String() != want {
			t.Fatalf("Status(%d).String() = %q, want %q", s, s.String(), want)
		}
	}
	if LE.String() != "<=" || GE.String() != ">=" || EQ.String() != "==" {
		t.Fatal("Rel.String mismatch")
	}
}

func BenchmarkSimplexMedium(b *testing.B) {
	rng := stats.NewRNG(5)
	nVars, nRows := 120, 80
	build := func() *Problem {
		p := NewProblem(nVars)
		for j := 0; j < nVars; j++ {
			p.SetObjectiveCoef(j, rng.Range(0.1, 2))
			p.SetBounds(j, 0, 1)
		}
		for r := 0; r < nRows; r++ {
			coefs := make([]Coef, 0, 10)
			for c := 0; c < 10; c++ {
				coefs = append(coefs, Coef{rng.Intn(nVars), rng.Range(0.1, 1)})
			}
			p.AddConstraint(GE, 0.5, coefs...)
		}
		return p
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := build()
		if _, err := p.Solve(); err != nil {
			b.Fatal(err)
		}
	}
}
