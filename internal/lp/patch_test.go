package lp

import (
	"math"
	"testing"
)

// buildPatchFixture returns a small LP with a precomputed CSC cache:
//
//	min  x0 + 2 x1 + 3 x2
//	s.t. x0 +   x1          >= 1
//	     2 x1 +  x2         <= 4
//	     x0 +   x2          ==  1
//	     0 <= x <= 2
func buildPatchFixture() *Problem {
	p := NewProblem(3)
	p.SetObjectiveCoef(0, 1)
	p.SetObjectiveCoef(1, 2)
	p.SetObjectiveCoef(2, 3)
	for j := 0; j < 3; j++ {
		p.SetBounds(j, 0, 2)
	}
	p.AddConstraint(GE, 1, Coef{Var: 0, Val: 1}, Coef{Var: 1, Val: 1})
	p.AddConstraint(LE, 4, Coef{Var: 1, Val: 2}, Coef{Var: 2, Val: 1})
	p.AddConstraint(EQ, 1, Coef{Var: 0, Val: 1}, Coef{Var: 2, Val: 1})
	p.Precompute()
	return p
}

// TestSetRowCoefPatchesRowsAndCSC checks that in-place patches hit both the
// row storage and the cached CSC, and that a patched problem solves exactly
// like a freshly built problem with the same data.
func TestSetRowCoefPatchesRowsAndCSC(t *testing.T) {
	p := buildPatchFixture()
	if !p.SetRowCoef(0, 1, 3) { // x1 coefficient of row 0: 1 → 3
		t.Fatal("value change not reported")
	}
	if p.SetRowCoef(0, 1, 3) {
		t.Fatal("no-op patch reported as a change")
	}
	p.SetRHS(1, 2.5)
	p.SetObjectiveCoef(1, 0.5)
	if err := p.CheckCSCSync(); err != nil {
		t.Fatalf("CSC out of sync after patches: %v", err)
	}
	if c := p.RowCoef(0, 1); c.Var != 1 || c.Val != 3 {
		t.Fatalf("RowCoef(0,1) = %+v", c)
	}
	if rel, rhs := p.RHS(1); rel != LE || rhs != 2.5 {
		t.Fatalf("RHS(1) = %v %g", rel, rhs)
	}
	if p.ObjectiveCoef(1) != 0.5 {
		t.Fatalf("ObjectiveCoef(1) = %g", p.ObjectiveCoef(1))
	}

	// Fresh build with the same final data.
	q := NewProblem(3)
	q.SetObjectiveCoef(0, 1)
	q.SetObjectiveCoef(1, 0.5)
	q.SetObjectiveCoef(2, 3)
	for j := 0; j < 3; j++ {
		q.SetBounds(j, 0, 2)
	}
	q.AddConstraint(GE, 1, Coef{Var: 0, Val: 1}, Coef{Var: 1, Val: 3})
	q.AddConstraint(LE, 2.5, Coef{Var: 1, Val: 2}, Coef{Var: 2, Val: 1})
	q.AddConstraint(EQ, 1, Coef{Var: 0, Val: 1}, Coef{Var: 2, Val: 1})

	sp, err := p.Solve()
	if err != nil {
		t.Fatal(err)
	}
	sq, err := q.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if sp.Status != Optimal || sq.Status != Optimal {
		t.Fatalf("status patched=%v fresh=%v", sp.Status, sq.Status)
	}
	if sp.Objective != sq.Objective {
		t.Fatalf("patched optimum %.17g != fresh %.17g", sp.Objective, sq.Objective)
	}
	for j := range sp.X {
		if math.Float64bits(sp.X[j]) != math.Float64bits(sq.X[j]) {
			t.Fatalf("x[%d]: patched %.17g != fresh %.17g", j, sp.X[j], sq.X[j])
		}
	}
	if sp.Iterations != sq.Iterations {
		t.Fatalf("patched pivots %d != fresh %d", sp.Iterations, sq.Iterations)
	}
}

// TestSetRowCoefZeroValueKeepsPattern: patching a coefficient to exactly 0
// keeps the entry in the pattern (a structural zero), so a later patch can
// restore it without rebuilding.
func TestSetRowCoefZeroValueKeepsPattern(t *testing.T) {
	p := buildPatchFixture()
	p.SetRowCoef(0, 0, 0)
	if err := p.CheckCSCSync(); err != nil {
		t.Fatal(err)
	}
	if p.RowLen(0) != 2 {
		t.Fatalf("row 0 has %d coefs, want 2", p.RowLen(0))
	}
	p.SetRowCoef(0, 0, 1)
	if err := p.CheckCSCSync(); err != nil {
		t.Fatal(err)
	}
	s, err := p.Solve()
	if err != nil || s.Status != Optimal {
		t.Fatalf("solve after zero/restore: %v %v", s.Status, err)
	}
}

// TestSetRowCoefDuplicateEntriesInvalidates: a row listing the same
// variable twice makes the CSC entry ambiguous; the patch must fall back to
// invalidating the cache instead of guessing, and the next solve rebuilds.
func TestSetRowCoefDuplicateEntriesInvalidates(t *testing.T) {
	p := NewProblem(1)
	p.SetObjectiveCoef(0, 1)
	p.SetBounds(0, 0, 10)
	p.AddConstraint(GE, 3, Coef{Var: 0, Val: 1}, Coef{Var: 0, Val: 1}) // 2*x0 >= 3
	p.Precompute()
	if !p.SetRowCoef(0, 0, 2) { // now 3*x0 >= 3
		t.Fatal("patch not applied")
	}
	if p.csc != nil {
		t.Fatal("ambiguous patch must invalidate the CSC cache")
	}
	s, err := p.MustSolve()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(s.X[0]-1) > 1e-9 {
		t.Fatalf("x0 = %g, want 1", s.X[0])
	}
}

// TestSetRHSRepricesWithoutCSCChange: rhs patches leave the cache untouched
// and change only the solved point.
func TestSetRHSRepricesWithoutCSCChange(t *testing.T) {
	p := buildPatchFixture()
	before, err := p.MustSolve()
	if err != nil {
		t.Fatal(err)
	}
	p.SetRHS(0, 1.5)
	if err := p.CheckCSCSync(); err != nil {
		t.Fatal(err)
	}
	after, err := p.MustSolve()
	if err != nil {
		t.Fatal(err)
	}
	if after.Objective <= before.Objective {
		t.Fatalf("tightened covering row did not raise the optimum: %g vs %g", after.Objective, before.Objective)
	}
}

// TestDiffNamesEveryCellClass: Diff accepts a problem built the same way,
// including one whose rows were patched to their original values, and
// reports a change in each cell class — shape, objective, bound, relation,
// right-hand side and coefficient.
func TestDiffNamesEveryCellClass(t *testing.T) {
	base := buildPatchFixture()
	if err := base.Diff(buildPatchFixture()); err != nil {
		t.Fatalf("identical builds differ: %v", err)
	}
	repatched := buildPatchFixture()
	repatched.SetRowCoef(1, 0, 8)
	repatched.SetRowCoef(1, 0, 2)
	if err := repatched.Diff(base); err != nil {
		t.Fatalf("a patch back to the built value differs: %v", err)
	}
	for name, mutate := range map[string]func(p *Problem){
		"shape":       func(p *Problem) { p.AddConstraint(GE, 0, Coef{Var: 0, Val: 1}) },
		"objective":   func(p *Problem) { p.SetObjectiveCoef(2, 3.5) },
		"bound":       func(p *Problem) { p.SetBounds(1, 0, 1) },
		"relation":    func(p *Problem) { p.rows[2].rel = GE },
		"rhs":         func(p *Problem) { p.SetRHS(0, 2) },
		"coefficient": func(p *Problem) { p.SetRowCoef(2, 1, 0.5) },
	} {
		p := buildPatchFixture()
		mutate(p)
		if err := p.Diff(base); err == nil {
			t.Errorf("%s change not reported", name)
		}
	}
}
