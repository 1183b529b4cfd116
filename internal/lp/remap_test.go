package lp

import (
	"math"
	"slices"
	"testing"

	"repro/internal/stats"
)

// perturb derives from p a related problem q with some columns and rows
// dropped, a few added and the survivors reordered, the way a path LP's
// keyed columns and rows move between calls. It returns q and the maps
// Remap takes: colMap[j] / rowMap[r] is the p index of q's column j / row
// r, or -1 for an added one. Added columns and rows draw from p's family
// (covering or mixed).
func perturb(p *Problem, rng *stats.RNG, covering bool) (q *Problem, colMap, rowMap []int) {
	newCol := func() (obj, lo, hi float64) {
		if covering {
			return rng.Range(0.5, 2), 0, 1
		}
		lo = rng.Range(0, 1)
		return rng.Range(-2, 2), lo, lo + rng.Range(0.5, 2)
	}
	newCoef := func() float64 {
		if covering {
			return rng.Range(0.5, 2)
		}
		return rng.Range(-1, 1)
	}
	for j := 0; j < p.NumVars(); j++ {
		if rng.Bernoulli(0.85) {
			colMap = append(colMap, j)
		}
	}
	for k := rng.Intn(1 + p.NumVars()/8); k > 0; k-- {
		colMap = append(colMap, -1)
	}
	colMap = shuffled(rng, colMap)
	for r := 0; r < p.NumRows(); r++ {
		if rng.Bernoulli(0.85) {
			rowMap = append(rowMap, r)
		}
	}
	for k := rng.Intn(3); k > 0; k-- {
		rowMap = append(rowMap, -1)
	}
	rowMap = shuffled(rng, rowMap)

	n := len(colMap)
	q = NewProblem(n)
	newOf := make(map[int]int, n)
	var added []int
	for j, old := range colMap {
		if old < 0 {
			obj, lo, hi := newCol()
			q.SetObjectiveCoef(j, obj)
			q.SetBounds(j, lo, hi)
			added = append(added, j)
			continue
		}
		newOf[old] = j
		q.SetObjectiveCoef(j, p.ObjectiveCoef(old))
		lo, hi := p.Bounds(old)
		q.SetBounds(j, lo, hi)
	}
	for _, old := range rowMap {
		var coefs []Coef
		rel, rhs := GE, rng.Range(0.5, 2.5)
		if old >= 0 {
			rel, rhs = p.RHS(old)
			for _, c := range p.RowCoefs(old) {
				if j, ok := newOf[c.Var]; ok {
					coefs = append(coefs, Coef{j, c.Val})
				}
			}
			for _, j := range added {
				if rng.Bernoulli(0.3) {
					coefs = append(coefs, Coef{j, newCoef()})
				}
			}
		} else {
			if !covering {
				rel, rhs = LE, rng.Range(-1, 3)
			}
			for c := 0; c < 6; c++ {
				coefs = append(coefs, Coef{rng.Intn(n), newCoef()})
			}
		}
		if len(coefs) == 0 {
			coefs = append(coefs, Coef{rng.Intn(n), newCoef()})
		}
		q.AddConstraint(rel, rhs, coefs...)
	}
	return q, colMap, rowMap
}

func shuffled(rng *stats.RNG, xs []int) []int {
	out := make([]int, len(xs))
	for i, k := range rng.Perm(len(xs)) {
		out[i] = xs[k]
	}
	return out
}

// TestRemapMatchesDense is the property lock on Basis.Remap: an optimal
// basis carried through the index maps of a perturbed problem (columns and
// rows dropped, added and reordered) must warm-start it to the dense
// reference solver's status and optimum (relative 1e-6) without falling
// back to a cold solve, and across the trials the remapped warm starts must
// spend fewer pivots than cold solves.
func TestRemapMatchesDense(t *testing.T) {
	warmPivots, coldPivots, optimal := 0, 0, 0
	for trial := 0; trial < 120; trial++ {
		seed := uint64(9100 + trial)
		covering := trial%2 == 1
		mk := randomMixed
		if covering {
			mk = randomCovering
		}
		p := mk(seed)
		first, err := p.Solve()
		if err != nil {
			t.Fatal(err)
		}
		if first.Status != Optimal {
			continue
		}
		q, colMap, rowMap := perturb(p, stats.NewRNG(seed^0x5eed), covering)
		b := first.Basis.Remap(colMap, rowMap)
		if b == nil || !b.compatible(q) {
			t.Fatalf("trial %d: remapped basis does not fit the %dx%d problem", trial, q.NumRows(), q.NumVars())
		}
		warm, err := q.SolveOpts(Options{WarmStart: b})
		if err != nil {
			t.Fatal(err)
		}
		dense := solveDense(q)
		if warm.Status != dense.Status {
			t.Fatalf("trial %d: remapped warm start %v, dense %v", trial, warm.Status, dense.Status)
		}
		if dense.Status != Optimal {
			continue
		}
		optimal++
		if math.Abs(warm.Objective-dense.Objective) > 1e-6*(1+math.Abs(dense.Objective)) {
			t.Fatalf("trial %d: remapped warm start %.12g, dense %.12g", trial, warm.Objective, dense.Objective)
		}
		if warm.Stats.WarmFallbacks != 0 {
			t.Fatalf("trial %d: remapped warm start fell back to a cold solve", trial)
		}
		cold, err := q.Solve()
		if err != nil {
			t.Fatal(err)
		}
		warmPivots += warm.Iterations
		coldPivots += cold.Iterations
	}
	t.Logf("%d optimal perturbed problems: pivots remapped %d, cold %d", optimal, warmPivots, coldPivots)
	if optimal < 60 {
		t.Fatalf("only %d of the perturbed problems were optimal", optimal)
	}
	if warmPivots >= coldPivots {
		t.Fatalf("remapped warm starts spent %d pivots, cold solves %d", warmPivots, coldPivots)
	}
}

// TestRemapBookkeeping: Remap keeps mapped statuses, makes new rows' slacks
// basic, balances the basic count, and rejects what it cannot map.
func TestRemapBookkeeping(t *testing.T) {
	// Two columns, two rows: x0 basic, row 1's slack basic.
	b := &Basis{NumVars: 2, NumRows: 2, ColStat: []int8{
		BasisBasic, BasisAtUpper, // x0, x1
		BasisAtLower, BasisBasic, // slacks
		BasisAtLower, BasisAtLower, // artificials
	}}
	// Swap the columns and append a row: x1 (upper), x0 (basic); rows 0, 1
	// and a new row whose slack enters.
	got := b.Remap([]int{1, 0}, []int{0, 1, -1})
	want := []int8{BasisAtUpper, BasisBasic, BasisAtLower, BasisBasic, BasisBasic, BasisAtLower, BasisAtLower, BasisAtLower}
	if got == nil || got.NumVars != 2 || got.NumRows != 3 || !slices.Equal(got.ColStat, want) {
		t.Fatalf("append: got %+v, want %v", got, want)
	}
	// Dropping row 0, whose slack is nonbasic, leaves two basics for one
	// row: the structural goes.
	got = b.Remap([]int{0, 1}, []int{1})
	want = []int8{BasisAtLower, BasisAtUpper, BasisBasic, BasisAtLower}
	if got == nil || !slices.Equal(got.ColStat, want) {
		t.Fatalf("drop row: got %+v, want %v", got, want)
	}
	// Dropping the basic x0 leaves row 0 without a basic: its slack enters.
	got = b.Remap([]int{1}, []int{0, 1})
	want = []int8{BasisAtUpper, BasisBasic, BasisBasic, BasisAtLower, BasisAtLower}
	if got == nil || !slices.Equal(got.ColStat, want) {
		t.Fatalf("drop column: got %+v, want %v", got, want)
	}
	if b.Remap([]int{2}, nil) != nil || b.Remap(nil, []int{2}) != nil || (*Basis)(nil).Remap(nil, nil) != nil {
		t.Fatal("out-of-range maps and nil bases must remap to nil")
	}
}
