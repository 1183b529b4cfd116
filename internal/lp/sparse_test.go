package lp

// Golden cross-checks of the sparse revised simplex against the dense
// tableau reference solver, warm-start equivalence tests, and the
// sparse-vs-dense benchmark pair.

import (
	"math"
	"reflect"
	"testing"

	"repro/internal/stats"
)

// fixtureProblems rebuilds the hand-written LP fixtures of lp_test.go with
// their known optima, so both solvers can be checked against the same
// golden values.
func fixtureProblems() []struct {
	name string
	mk   func() *Problem
	want float64
} {
	inf := math.Inf(1)
	return []struct {
		name string
		mk   func() *Problem
		want float64
	}{
		{"simple", func() *Problem {
			p := NewProblem(2)
			p.SetObjectiveCoef(0, -1)
			p.SetObjectiveCoef(1, -1)
			p.AddConstraint(LE, 4, Coef{0, 1}, Coef{1, 2})
			p.AddConstraint(LE, 6, Coef{0, 3}, Coef{1, 1})
			return p
		}, -14.0 / 5},
		{"equality-ge", func() *Problem {
			p := NewProblem(2)
			p.SetObjectiveCoef(0, 2)
			p.SetObjectiveCoef(1, 3)
			p.AddConstraint(EQ, 10, Coef{0, 1}, Coef{1, 1})
			p.AddConstraint(GE, 3, Coef{0, 1})
			p.AddConstraint(GE, 2, Coef{1, 1})
			return p
		}, 22},
		{"bounded", func() *Problem {
			p := NewProblem(2)
			p.SetObjectiveCoef(0, -1)
			p.SetObjectiveCoef(1, -2)
			p.SetBounds(0, 0, 1)
			p.SetBounds(1, 0, 1)
			p.AddConstraint(LE, 1.5, Coef{0, 1}, Coef{1, 1})
			return p
		}, -2.5},
		{"shifted-lower", func() *Problem {
			p := NewProblem(2)
			p.SetObjectiveCoef(0, 1)
			p.SetObjectiveCoef(1, 1)
			p.SetBounds(0, 2, inf)
			p.SetBounds(1, 3, 5)
			p.AddConstraint(GE, 7, Coef{0, 1}, Coef{1, 1})
			return p
		}, 7},
		{"degenerate", func() *Problem {
			p := NewProblem(4)
			for j, v := range []float64{-0.75, 150, -0.02, 6} {
				p.SetObjectiveCoef(j, v)
			}
			p.AddConstraint(LE, 0, Coef{0, 0.25}, Coef{1, -60}, Coef{2, -0.04}, Coef{3, 9})
			p.AddConstraint(LE, 0, Coef{0, 0.5}, Coef{1, -90}, Coef{2, -0.02}, Coef{3, 3})
			p.AddConstraint(LE, 1, Coef{2, 1})
			return p
		}, -0.05},
		{"negative-rhs", func() *Problem {
			p := NewProblem(1)
			p.SetObjectiveCoef(0, 1)
			p.AddConstraint(LE, -3, Coef{0, -1})
			return p
		}, 3},
		{"eq-negative-rhs", func() *Problem {
			p := NewProblem(2)
			p.SetObjectiveCoef(0, 1)
			p.SetObjectiveCoef(1, 1)
			p.AddConstraint(EQ, -2, Coef{0, -1}, Coef{1, -1})
			return p
		}, 2},
		{"wide-bounds-mix", func() *Problem {
			p := NewProblem(3)
			p.SetObjectiveCoef(0, 1)
			p.SetObjectiveCoef(1, 2)
			p.SetObjectiveCoef(2, -1)
			p.SetBounds(0, 0, 10)
			p.SetBounds(1, 2, 6)
			p.SetBounds(2, 1, 3)
			p.AddConstraint(EQ, 8, Coef{0, 1}, Coef{1, 1}, Coef{2, 1})
			p.AddConstraint(GE, 3, Coef{0, 1}, Coef{2, 1})
			return p
		}, 4},
	}
}

// TestSparseMatchesDenseOnFixtures solves every hand-written fixture with
// both solvers and checks both against the recorded optimum within 1e-6.
func TestSparseMatchesDenseOnFixtures(t *testing.T) {
	for _, f := range fixtureProblems() {
		sparse, err := f.mk().SolveOpts(Options{})
		if err != nil {
			t.Fatalf("%s: sparse: %v", f.name, err)
		}
		dense := solveDense(f.mk())
		if sparse.Status != Optimal || dense.Status != Optimal {
			t.Fatalf("%s: status sparse=%v dense=%v", f.name, sparse.Status, dense.Status)
		}
		if math.Abs(sparse.Objective-f.want) > 1e-6 {
			t.Fatalf("%s: sparse objective %.9f, want %.9f", f.name, sparse.Objective, f.want)
		}
		if math.Abs(sparse.Objective-dense.Objective) > 1e-6 {
			t.Fatalf("%s: sparse %.9f != dense %.9f", f.name, sparse.Objective, dense.Objective)
		}
	}
}

// randomCovering draws a covering LP shaped like the stress fixtures of
// lp_stress_test.go.
func randomCovering(seed uint64) *Problem {
	rng := stats.NewRNG(seed)
	nVars := 40 + rng.Intn(120)
	nCover := 20 + rng.Intn(60)
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
	return p
}

// randomMixed draws an LP with a mix of relations, negative coefficients,
// and shifted/finite bounds to exercise every construction path.
func randomMixed(seed uint64) *Problem {
	rng := stats.NewRNG(seed)
	nVars := 5 + rng.Intn(12)
	p := NewProblem(nVars)
	for j := 0; j < nVars; j++ {
		p.SetObjectiveCoef(j, rng.Range(-2, 2))
		lo := rng.Range(0, 1)
		p.SetBounds(j, lo, lo+rng.Range(0.5, 2))
	}
	nRows := 3 + rng.Intn(8)
	for r := 0; r < nRows; r++ {
		coefs := make([]Coef, 0, nVars)
		for j := 0; j < nVars; j++ {
			if rng.Bernoulli(0.6) {
				coefs = append(coefs, Coef{j, rng.Range(-1, 1)})
			}
		}
		if len(coefs) == 0 {
			coefs = append(coefs, Coef{0, 1})
		}
		rel := LE
		switch {
		case rng.Bernoulli(0.3):
			rel = GE
		case rng.Bernoulli(0.2):
			rel = EQ
		}
		p.AddConstraint(rel, rng.Range(-1, 3), coefs...)
	}
	return p
}

// TestSparseMatchesDenseRandom cross-checks both solvers on a few hundred
// random LPs: identical statuses, objectives within 1e-6, and feasible
// points from both.
func TestSparseMatchesDenseRandom(t *testing.T) {
	for trial := 0; trial < 150; trial++ {
		var mk func(uint64) *Problem
		if trial%2 == 0 {
			mk = randomMixed
		} else {
			mk = randomCovering
		}
		seed := uint64(1000 + trial)
		sparse, err := mk(seed).SolveOpts(Options{})
		if err != nil {
			t.Fatalf("trial %d: sparse: %v", trial, err)
		}
		pd := mk(seed)
		dense := solveDense(pd)
		if sparse.Status != dense.Status {
			t.Fatalf("trial %d: status sparse=%v dense=%v", trial, sparse.Status, dense.Status)
		}
		if sparse.Status != Optimal {
			continue
		}
		if math.Abs(sparse.Objective-dense.Objective) > 1e-6 {
			t.Fatalf("trial %d: sparse %.9f != dense %.9f", trial, sparse.Objective, dense.Objective)
		}
		if err := pd.CheckFeasible(sparse.X, 1e-6); err != nil {
			t.Fatalf("trial %d: sparse point infeasible: %v", trial, err)
		}
	}
}

// TestSolveIndependentOfRecycledWorkspace: a solver starts on the working
// arrays of an earlier, finished solve, so every solve must come out bit for
// bit the same whatever ran before it (a larger or smaller LP, other
// relations, a warm start that adopted and extended a carried
// factorization), and no later solve may write the eta files a snapshotted
// factorization holds.
func TestSolveIndependentOfRecycledWorkspace(t *testing.T) {
	mks := []func(uint64) *Problem{randomCovering, randomMixed}
	seeds := []uint64{7400, 7401, 7402, 7403}
	mk := func(k int) *Problem { return mks[k%2](seeds[k]) }
	solve := func(p *Problem, o Options) *Solution {
		sol, err := p.SolveOpts(o)
		if err != nil {
			t.Fatal(err)
		}
		return sol
	}
	same := func(a, b []float64) bool {
		if len(a) != len(b) {
			return false
		}
		for i := range a {
			if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
				return false
			}
		}
		return true
	}
	files := func(b *Basis) []etaFile {
		if b == nil || b.Fact == nil {
			return nil
		}
		out := make([]etaFile, 3)
		for i, e := range []*etaFile{b.Fact.lower, b.Fact.upper, b.Fact.updates} {
			out[i].copyFrom(e)
		}
		return out
	}
	ref := make([]*Solution, len(seeds))
	for k := range seeds {
		ref[k] = solve(mk(k), Options{})
	}
	for a := range seeds {
		for b := range seeds {
			pa := mk(a)
			first := solve(pa, Options{})
			held := files(first.Basis)
			got, want := solve(mk(b), Options{}), ref[b]
			if got.Status != want.Status || got.Iterations != want.Iterations || got.Stats != want.Stats ||
				math.Float64bits(got.Objective) != math.Float64bits(want.Objective) ||
				!same(got.X, want.X) || !same(got.Duals, want.Duals) {
				t.Fatalf("problem %d after problem %d: %v %d pivots %.17g, earlier solve %v %d pivots %.17g",
					b, a, got.Status, got.Iterations, got.Objective, want.Status, want.Iterations, want.Objective)
			}
			pa.SetObjectiveCoef(0, pa.obj[0]+0.25)
			solve(pa, Options{WarmStart: first.Basis})
			if !reflect.DeepEqual(files(first.Basis), held) {
				t.Fatalf("solves after problem %d wrote the eta files of its factorization", a)
			}
		}
	}
}

// TestWarmStartAfterCostChange: re-solving with perturbed costs from the
// previous basis must reach the same optimum as a cold solve, in fewer
// iterations (the basis stays primal feasible, so phase 1 is skipped).
func TestWarmStartAfterCostChange(t *testing.T) {
	agg := struct{ warm, cold int }{}
	for trial := 0; trial < 25; trial++ {
		seed := uint64(3000 + trial)
		p := randomCovering(seed)
		first, err := p.Solve()
		if err != nil || first.Status != Optimal {
			t.Fatalf("trial %d: first solve %v %v", trial, first.Status, err)
		}
		if first.Basis == nil {
			t.Fatalf("trial %d: optimal solve returned nil basis", trial)
		}
		// Perturb a third of the costs.
		rng := stats.NewRNG(seed ^ 0xfeed)
		for j := 0; j < p.NumVars(); j++ {
			if rng.Bernoulli(0.33) {
				p.AddObjectiveCoef(j, rng.Range(-0.2, 0.2))
			}
		}
		warm, err := p.SolveOpts(Options{WarmStart: first.Basis})
		if err != nil {
			t.Fatal(err)
		}
		cold, err := p.SolveOpts(Options{})
		if err != nil {
			t.Fatal(err)
		}
		if warm.Status != Optimal || cold.Status != Optimal {
			t.Fatalf("trial %d: status warm=%v cold=%v", trial, warm.Status, cold.Status)
		}
		if math.Abs(warm.Objective-cold.Objective) > 1e-6 {
			t.Fatalf("trial %d: warm %.9f != cold %.9f", trial, warm.Objective, cold.Objective)
		}
		if warm.Stats.WarmFallbacks != 0 {
			t.Fatalf("trial %d: warm start fell back to a cold solve", trial)
		}
		agg.warm += warm.Iterations
		agg.cold += cold.Iterations
	}
	if agg.warm >= agg.cold {
		t.Fatalf("warm starts did not reduce total iterations: warm=%d cold=%d", agg.warm, agg.cold)
	}
	t.Logf("total iterations: warm=%d cold=%d", agg.warm, agg.cold)
}

// relClose reports whether a and b agree to tol relative to max(1, |b|).
func relClose(a, b, tol float64) bool {
	return math.Abs(a-b) <= tol*math.Max(1, math.Abs(b))
}

// TestWarmStartAfterCostAndRHSChange: moving costs and covering demands in
// the same re-solve leaves the previous basis neither primal feasible (the
// rhs moved) nor dual feasible (the costs moved). The warm path must shift
// costs and stay warm: no cold fallback, the cold optimum to 1e-9, and
// fewer pivots in total than cold solves.
func TestWarmStartAfterCostAndRHSChange(t *testing.T) {
	agg := struct{ warm, cold, neither int }{}
	for trial := 0; trial < 25; trial++ {
		seed := uint64(3000 + trial)
		p := randomCovering(seed)
		first, err := p.Solve()
		if err != nil || first.Status != Optimal {
			t.Fatalf("trial %d: first solve %v %v", trial, first.Status, err)
		}
		rng := stats.NewRNG(seed ^ 0xbeef)
		for j := 0; j < p.NumVars(); j++ {
			if rng.Bernoulli(0.33) {
				p.AddObjectiveCoef(j, rng.Range(-0.3, 0.3))
			}
		}
		for r := 0; r < p.NumRows(); r++ {
			if rng.Bernoulli(0.5) {
				_, rhs := p.RHS(r)
				p.SetRHS(r, rhs*rng.Range(0.6, 1.6))
			}
		}
		probe := newSparse(p, Options{})
		if !probe.installWarm(first.Basis) {
			t.Fatalf("trial %d: basis did not install", trial)
		}
		primalInfeasible := probe.primalInfeasibility() > tolFeas
		if shifted := probe.shiftCosts(); primalInfeasible && shifted > 0 {
			agg.neither++
		}
		if n := probe.shiftCosts(); n != 0 {
			t.Fatalf("trial %d: %d columns still dual infeasible after the cost shift", trial, n)
		}
		warm, err := p.SolveOpts(Options{WarmStart: first.Basis})
		if err != nil {
			t.Fatal(err)
		}
		cold, err := p.SolveOpts(Options{})
		if err != nil {
			t.Fatal(err)
		}
		if warm.Status != Optimal || cold.Status != Optimal {
			t.Fatalf("trial %d: status warm=%v cold=%v", trial, warm.Status, cold.Status)
		}
		if warm.Stats.WarmFallbacks != 0 {
			t.Fatalf("trial %d: warm start fell back to a cold solve", trial)
		}
		if !relClose(warm.Objective, cold.Objective, 1e-9) {
			t.Fatalf("trial %d: warm %.12f != cold %.12f", trial, warm.Objective, cold.Objective)
		}
		agg.warm += warm.Iterations
		agg.cold += cold.Iterations
	}
	if agg.neither < 20 {
		t.Fatalf("only %d of 25 perturbed bases were neither primal nor dual feasible", agg.neither)
	}
	if agg.warm >= agg.cold {
		t.Fatalf("warm starts did not reduce total iterations: warm=%d cold=%d", agg.warm, agg.cold)
	}
	t.Logf("neither feasible: %d of 25; total iterations: warm=%d cold=%d", agg.neither, agg.warm, agg.cold)
}

// TestWarmStartShiftMarginNoStall locks shiftMargin on a fixture where
// shifting the dual-infeasible columns to exactly zero reduced cost leaves
// the dual simplex cycling among them until the pivot limit (57,400
// pivots), so the warm start fell back to a cold solve.
func TestWarmStartShiftMarginNoStall(t *testing.T) {
	const seed = 92165
	p := randomCovering(seed)
	first, err := p.Solve()
	if err != nil || first.Status != Optimal {
		t.Fatalf("first solve %v %v", first.Status, err)
	}
	rng := stats.NewRNG(seed ^ 0xbeef)
	for j := 0; j < p.NumVars(); j++ {
		if rng.Bernoulli(0.5) {
			p.AddObjectiveCoef(j, rng.Range(-1, 1))
		}
	}
	for r := 0; r < p.NumRows(); r++ {
		if rng.Bernoulli(0.5) {
			_, rhs := p.RHS(r)
			p.SetRHS(r, rhs+rng.Range(-1, 1))
		}
	}
	warm, err := p.SolveOpts(Options{WarmStart: first.Basis})
	if err != nil {
		t.Fatal(err)
	}
	cold, err := p.SolveOpts(Options{})
	if err != nil {
		t.Fatal(err)
	}
	if warm.Status != Optimal || cold.Status != Optimal || warm.Stats.WarmFallbacks != 0 {
		t.Fatalf("status warm=%v cold=%v, %d fallbacks", warm.Status, cold.Status, warm.Stats.WarmFallbacks)
	}
	if !relClose(warm.Objective, cold.Objective, 1e-9) || warm.Iterations >= cold.Iterations {
		t.Fatalf("warm %.12f in %d pivots, cold %.12f in %d", warm.Objective, warm.Iterations, cold.Objective, cold.Iterations)
	}
}

// zeroColumn sets every coefficient of structural column j to zero in
// place, the way departing viewers zero their covering coefficients.
func zeroColumn(p *Problem, j int) {
	for r := 0; r < p.NumRows(); r++ {
		for pos := 0; pos < p.RowLen(r); pos++ {
			if p.RowCoef(r, pos).Var == j {
				p.SetRowCoef(r, pos, 0)
			}
		}
	}
}

// TestWarmStartRepairsSingularBasis: zeroing basic structural columns makes
// the carried basis singular. The install must swap the dependent columns
// for row slacks and stay warm — with the carried factorization (whose
// column replacement meets a zero pivot) and with RefactorOnInstall alike —
// and reach the cold optimum.
func TestWarmStartRepairsSingularBasis(t *testing.T) {
	for _, refactor := range []bool{false, true} {
		repairs := 0
		for trial := 0; trial < 20; trial++ {
			seed := uint64(3100 + trial)
			p := randomCovering(seed)
			first, err := p.Solve()
			if err != nil || first.Status != Optimal {
				t.Fatalf("trial %d: first solve %v %v", trial, first.Status, err)
			}
			zeroed := 0
			for j := 0; j < p.NumVars() && zeroed < 1+trial%3; j++ {
				if first.Basis.ColStat[j] == BasisBasic {
					zeroColumn(p, j)
					zeroed++
				}
			}
			if zeroed == 0 {
				t.Fatalf("trial %d: no basic structural column", trial)
			}
			warm, err := p.SolveOpts(Options{WarmStart: first.Basis, RefactorOnInstall: refactor})
			if err != nil {
				t.Fatal(err)
			}
			cold, err := p.SolveOpts(Options{})
			if err != nil {
				t.Fatal(err)
			}
			if warm.Status != Optimal || cold.Status != Optimal {
				t.Fatalf("refactor=%v trial %d: status warm=%v cold=%v", refactor, trial, warm.Status, cold.Status)
			}
			if warm.Stats.Repairs == 0 || warm.Stats.WarmFallbacks != 0 {
				t.Fatalf("refactor=%v trial %d: repairs=%d fallbacks=%d, want >0 and 0",
					refactor, trial, warm.Stats.Repairs, warm.Stats.WarmFallbacks)
			}
			if !relClose(warm.Objective, cold.Objective, 1e-9) {
				t.Fatalf("refactor=%v trial %d: warm %.12f != cold %.12f", refactor, trial, warm.Objective, cold.Objective)
			}
			if err := p.CheckFeasible(warm.X, 1e-6); err != nil {
				t.Fatalf("refactor=%v trial %d: %v", refactor, trial, err)
			}
			repairs += warm.Stats.Repairs
		}
		t.Logf("refactor=%v: %d columns repaired", refactor, repairs)
	}
}

// TestWarmStartPerturbedMatchesDense: on random LPs with every relation,
// negative coefficients and shifted bounds, a warm start after moving costs
// and rhs together — and, on a third of them, zeroing some basic columns —
// must agree with the dense reference solver on status and optimum, and
// never fall back to a cold solve.
func TestWarmStartPerturbedMatchesDense(t *testing.T) {
	optimal := 0
	for trial := 0; trial < 300; trial++ {
		seed := uint64(70000 + trial)
		p := randomCovering(seed)
		if trial%2 == 0 {
			p = randomMixed(seed)
		}
		first, err := p.Solve()
		if err != nil || first.Status != Optimal {
			continue
		}
		rng := stats.NewRNG(seed ^ 0xabc)
		for j := 0; j < p.NumVars(); j++ {
			if rng.Bernoulli(0.4) {
				p.AddObjectiveCoef(j, rng.Range(-1, 1))
			}
		}
		for r := 0; r < p.NumRows(); r++ {
			if rng.Bernoulli(0.4) {
				_, rhs := p.RHS(r)
				p.SetRHS(r, rhs+rng.Range(-0.5, 0.5))
			}
		}
		for j := 0; trial%3 == 0 && j < p.NumVars(); j++ {
			if first.Basis.ColStat[j] == BasisBasic && rng.Bernoulli(0.3) {
				zeroColumn(p, j)
			}
		}
		warm, err := p.SolveOpts(Options{WarmStart: first.Basis})
		if err != nil {
			t.Fatal(err)
		}
		dense := solveDense(p)
		if warm.Status != dense.Status {
			t.Fatalf("trial %d: status warm=%v dense=%v", trial, warm.Status, dense.Status)
		}
		if warm.Status != Optimal {
			continue
		}
		optimal++
		if warm.Stats.WarmFallbacks != 0 {
			t.Fatalf("trial %d: warm start fell back to a cold solve", trial)
		}
		if !relClose(warm.Objective, dense.Objective, 1e-6) {
			t.Fatalf("trial %d: warm %.9f != dense %.9f", trial, warm.Objective, dense.Objective)
		}
	}
	if optimal < 100 {
		t.Fatalf("only %d optimal perturbed fixtures", optimal)
	}
}

// TestWarmStartAfterBoundChange mimics a branch-and-bound dive: fix a
// fractional basic variable to an integer bound and re-solve warm. The
// parent basis is primal infeasible but dual feasible, so the dual simplex
// path must reach the cold optimum.
func TestWarmStartAfterBoundChange(t *testing.T) {
	checked := 0
	for trial := 0; trial < 40 && checked < 15; trial++ {
		seed := uint64(5000 + trial)
		p := randomCovering(seed)
		first, err := p.Solve()
		if err != nil || first.Status != Optimal {
			continue
		}
		// Find a fractional variable to "branch" on.
		branch := -1
		for j := 0; j < p.NumVars(); j++ {
			if first.X[j] > 0.2 && first.X[j] < 0.8 {
				branch = j
				break
			}
		}
		if branch < 0 {
			continue
		}
		for _, side := range []float64{0, 1} {
			p.SetBounds(branch, side, side)
			warm, err := p.SolveOpts(Options{WarmStart: first.Basis})
			if err != nil {
				t.Fatal(err)
			}
			cold, err := p.SolveOpts(Options{})
			if err != nil {
				t.Fatal(err)
			}
			if warm.Status != cold.Status {
				t.Fatalf("trial %d side %v: status warm=%v cold=%v", trial, side, warm.Status, cold.Status)
			}
			if warm.Status == Optimal && math.Abs(warm.Objective-cold.Objective) > 1e-6 {
				t.Fatalf("trial %d side %v: warm %.9f != cold %.9f", trial, side, warm.Objective, cold.Objective)
			}
			// A warm Infeasible is re-verified cold, so only optima must
			// come from the warm path.
			if warm.Status == Optimal && warm.Stats.WarmFallbacks != 0 {
				t.Fatalf("trial %d side %v: warm start fell back to a cold solve", trial, side)
			}
			p.SetBounds(branch, 0, 1)
			checked++
		}
	}
	if checked == 0 {
		t.Fatal("no branchable fixtures found")
	}
}

// TestWarmStartGarbageBasisDegrades: an incompatible or nonsense basis
// must silently fall back to a cold solve.
func TestWarmStartGarbageBasisDegrades(t *testing.T) {
	p := randomCovering(42)
	want, err := p.Solve()
	if err != nil {
		t.Fatal(err)
	}
	cases := []*Basis{
		nil,
		{NumVars: 1, NumRows: 1, ColStat: []int8{BasisBasic}},
		{NumVars: p.NumVars(), NumRows: p.NumRows(),
			ColStat: make([]int8, p.NumVars()+2*p.NumRows())}, // zero basic columns
	}
	for i, b := range cases {
		got, err := p.SolveOpts(Options{WarmStart: b})
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		if got.Status != Optimal || math.Abs(got.Objective-want.Objective) > 1e-6 {
			t.Fatalf("case %d: %v %.9f, want optimal %.9f", i, got.Status, got.Objective, want.Objective)
		}
	}
}

// TestWarmStartSameProblemFewIterations: warm-starting the identical
// problem from its own optimal basis must terminate almost immediately.
func TestWarmStartSameProblemFewIterations(t *testing.T) {
	p := randomCovering(99)
	first, err := p.Solve()
	if err != nil || first.Status != Optimal {
		t.Fatalf("%v %v", first.Status, err)
	}
	again, err := p.SolveOpts(Options{WarmStart: first.Basis})
	if err != nil {
		t.Fatal(err)
	}
	if again.Status != Optimal || math.Abs(again.Objective-first.Objective) > 1e-9 {
		t.Fatalf("re-solve: %v %.12f, want %.12f", again.Status, again.Objective, first.Objective)
	}
	if again.Iterations > 2 {
		t.Fatalf("re-solve from optimal basis took %d iterations", again.Iterations)
	}
}

// BenchmarkLPSparseVsDense pits the two solvers against each other on the
// covering-LP family (see BenchmarkStageLPSolve in the repository root for
// the overlay-relaxation comparison).
func BenchmarkLPSparseVsDense(b *testing.B) {
	b.Run("sparse", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := randomCovering(uint64(i % 8)).Solve(); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("dense", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			solveDense(randomCovering(uint64(i % 8)))
		}
	})
}
