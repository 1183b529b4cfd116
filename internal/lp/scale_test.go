package lp

// Locks for row scaling: the Problem stores every row divided by a power of
// two derived from the row's current values, and undoes it wherever a value
// leaves the Problem. What is set must read back bit for bit, the audit must
// judge the rows as set, a patched Problem must store exactly what a fresh
// one with the same values stores, and a patch that moves a row's scale
// must reach a carried factorization through the patch versions.

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/stats"
)

// wideRow draws a row of n coefficients spanning several orders of
// magnitude (the aggregate LP mixes unit loads of O(10^3) with fanout
// coefficients of O(10)), with a few exact zeros and negatives.
func wideRow(rng *stats.RNG, nVars, n int) []Coef {
	coefs := make([]Coef, 0, n)
	for k := 0; k < n; k++ {
		v := math.Pow(10, rng.Range(-3, 4))
		switch {
		case rng.Bernoulli(0.1):
			v = 0
		case rng.Bernoulli(0.3):
			v = -v
		}
		coefs = append(coefs, Coef{Var: rng.Intn(nVars), Val: v})
	}
	return coefs
}

// requireBits fails unless got and want are the same float64 bit for bit.
func requireBits(t *testing.T, what string, got, want float64) {
	t.Helper()
	if math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("%s = %.17g, want %.17g as set", what, got, want)
	}
}

// TestRowScaleFactor pins the factor: the largest power of two not above
// the row's largest magnitude, 1 for rows that are empty or all zero, and
// the same whatever scale the row is currently stored under.
func TestRowScaleFactor(t *testing.T) {
	for _, c := range []struct {
		vals []float64
		want float64
	}{
		{nil, 1},
		{[]float64{0, 0}, 1},
		{[]float64{1}, 1},
		{[]float64{1.999, -0.5}, 1},
		{[]float64{2}, 2},
		{[]float64{-1500, 12, 0.3}, 1024},
		{[]float64{0.75, 0.2}, 0.5},
		{[]float64{3e-4}, math.Ldexp(1, -12)},
	} {
		coefs := make([]Coef, len(c.vals))
		for i, v := range c.vals {
			coefs[i] = Coef{Var: i, Val: v}
		}
		if got := rowScale(coefs, 1); got != c.want {
			t.Errorf("rowScale(%v) = %g, want %g", c.vals, got, c.want)
		}
		if c.want == 1 && len(c.vals) > 0 && c.vals[0] == 0 {
			continue // a zero row's factor is 1 under any scale
		}
		for i := range coefs {
			coefs[i].Val /= 8
		}
		if got := rowScale(coefs, 8); got != c.want {
			t.Errorf("rowScale(%v / 8, 8) = %g, want %g", c.vals, got, c.want)
		}
	}
}

// TestRowAccessorsReturnValuesAsSet: RowCoef, RowCoefs and RHS return bit
// for bit what AddConstraint, SetRowCoef and SetRHS set — non-power-of-two
// values, zeros, all-zero and empty rows included — before and after the
// Precompute that re-derives the patched rows' scales. After it every row
// is stored with its largest entry in [1, 2), and the Problem stores
// exactly what a fresh Problem built from the same values stores: rows,
// scales, rhs and CSC cache.
func TestRowAccessorsReturnValuesAsSet(t *testing.T) {
	rng := stats.NewRNG(2718)
	const nVars, nRows = 30, 40
	p := NewProblem(nVars)
	want := make([][]Coef, nRows)
	rhs := make([]float64, nRows)
	for r := 0; r < nRows; r++ {
		switch r {
		case 0:
			want[r] = nil // empty row
		case 1:
			want[r] = []Coef{{Var: 3, Val: 0}, {Var: 4, Val: 0}} // all-zero row
		default:
			want[r] = wideRow(rng, nVars, 1+rng.Intn(8))
		}
		rhs[r] = rng.Range(-2000, 2000)
		p.AddConstraint(Rel(r%3), rhs[r], want[r]...)
	}
	check := func(stage string) {
		t.Helper()
		for r := 0; r < nRows; r++ {
			rel, b := p.RHS(r)
			if rel != Rel(r%3) {
				t.Fatalf("%s: row %d relation %v", stage, r, rel)
			}
			requireBits(t, fmt.Sprintf("%s: rhs of row %d", stage, r), b, rhs[r])
			got := p.RowCoefs(r)
			if len(got) != len(want[r]) || p.RowLen(r) != len(want[r]) {
				t.Fatalf("%s: row %d has %d coefficients, want %d", stage, r, len(got), len(want[r]))
			}
			for k, c := range want[r] {
				if got[k].Var != c.Var || p.RowCoef(r, k).Var != c.Var {
					t.Fatalf("%s: row %d entry %d variable moved", stage, r, k)
				}
				requireBits(t, fmt.Sprintf("%s: RowCoefs(%d)[%d]", stage, r, k), got[k].Val, c.Val)
				requireBits(t, fmt.Sprintf("%s: RowCoef(%d, %d)", stage, r, k), p.RowCoef(r, k).Val, c.Val)
			}
		}
	}
	check("built")
	p.Precompute()
	for epoch := 0; epoch < 30; epoch++ {
		for n := 0; n < 12; n++ {
			r := 2 + rng.Intn(nRows-2)
			k := rng.Intn(len(want[r]))
			var v float64
			switch {
			case rng.Bernoulli(0.2):
				v = 0
			case rng.Bernoulli(0.3):
				v = want[r][k].Val * rng.Range(0.5, 40) // often moves the scale up
			default:
				v = math.Pow(10, rng.Range(-3, 4))
			}
			changed := p.SetRowCoef(r, k, v)
			if changed != (v != want[r][k].Val) {
				t.Fatalf("epoch %d: SetRowCoef(%d, %d, %g) reported change %v for old value %g",
					epoch, r, k, v, changed, want[r][k].Val)
			}
			want[r][k].Val = v
			if rng.Bernoulli(0.5) {
				rhs[r] = rng.Range(-2000, 2000)
				p.SetRHS(r, rhs[r])
			}
		}
		if epoch%5 == 4 {
			// Zero a whole row: its scale falls back to 1.
			r := 2 + rng.Intn(nRows-2)
			for k := range want[r] {
				p.SetRowCoef(r, k, 0)
				want[r][k].Val = 0
			}
		}
		check(fmt.Sprintf("epoch %d patched", epoch))
		p.Precompute()
		check(fmt.Sprintf("epoch %d precomputed", epoch))
		if err := p.CheckCSCSync(); err != nil {
			t.Fatalf("epoch %d: %v", epoch, err)
		}
	}

	fresh := NewProblem(nVars)
	for r := 0; r < nRows; r++ {
		fresh.AddConstraint(Rel(r%3), rhs[r], want[r]...)
	}
	fresh.Precompute()
	for r, rw := range p.rows {
		fw := fresh.rows[r]
		big := 0.0
		for _, c := range rw.coefs {
			big = max(big, math.Abs(c.Val))
		}
		if big != 0 && (big < 1 || big >= 2) {
			t.Fatalf("row %d stored with largest entry %g, want it in [1, 2)", r, big)
		}
		if rw.scale != fw.scale || math.Float64bits(rw.rhs) != math.Float64bits(fw.rhs) {
			t.Fatalf("row %d: scale %g rhs %.17g, fresh build %g %.17g", r, rw.scale, rw.rhs, fw.scale, fw.rhs)
		}
		for k := range rw.coefs {
			if math.Float64bits(rw.coefs[k].Val) != math.Float64bits(fw.coefs[k].Val) {
				t.Fatalf("row %d entry %d stored %.17g, fresh build %.17g", r, k, rw.coefs[k].Val, fw.coefs[k].Val)
			}
		}
	}
	for q := range p.csc.val {
		if math.Float64bits(p.csc.val[q]) != math.Float64bits(fresh.csc.val[q]) {
			t.Fatalf("csc entry %d %.17g, fresh build %.17g", q, p.csc.val[q], fresh.csc.val[q])
		}
	}
}

// checkFeasibleUnscaled is CheckFeasible computed on the rows as set, read
// back through the accessors: the reference the scaled audit must agree
// with, verdict and error text.
func checkFeasibleUnscaled(p *Problem, x []float64, tol float64) error {
	for j := 0; j < p.NumVars(); j++ {
		lo, hi := p.Bounds(j)
		if x[j] < lo-tol || x[j] > hi+tol {
			return fmt.Errorf("lp: x[%d]=%g outside [%g,%g]", j, x[j], lo, hi)
		}
	}
	for r := 0; r < p.NumRows(); r++ {
		rel, rhs := p.RHS(r)
		coefs := p.RowCoefs(r)
		v, scale := 0.0, 1.0
		for _, c := range coefs {
			v += c.Val * x[c.Var]
			if a := math.Abs(c.Val); a > scale {
				scale = a
			}
		}
		rtol := tol * scale * float64(1+len(coefs))
		switch rel {
		case LE:
			if v > rhs+rtol {
				return fmt.Errorf("lp: row %d: %g > rhs %g", r, v, rhs)
			}
		case GE:
			if v < rhs-rtol {
				return fmt.Errorf("lp: row %d: %g < rhs %g", r, v, rhs)
			}
		case EQ:
			if math.Abs(v-rhs) > rtol {
				return fmt.Errorf("lp: row %d: %g != rhs %g", r, v, rhs)
			}
		}
	}
	return nil
}

// TestCheckFeasibleMatchesUnscaledReference: the audit sums each stored row
// and multiplies by its scale, which gives the unscaled sum exactly, so its
// verdict and error text equal the unscaled reference's on random points
// near the bounds and rows whose rhs sits within a few tolerances of the
// point's row value.
func TestCheckFeasibleMatchesUnscaledReference(t *testing.T) {
	rng := stats.NewRNG(1618)
	const tol = 1e-6
	verdicts := map[bool]int{}
	for trial := 0; trial < 300; trial++ {
		nVars := 4 + rng.Intn(10)
		p := NewProblem(nVars)
		x := make([]float64, nVars)
		for j := range x {
			lo := rng.Range(0, 2)
			hi := lo + rng.Range(0, 3)
			p.SetBounds(j, lo, hi)
			switch {
			case rng.Bernoulli(0.15):
				x[j] = lo + rng.Range(-1.2, 1)*tol
			case rng.Bernoulli(0.15):
				x[j] = hi + rng.Range(-1, 1.2)*tol
			default:
				x[j] = rng.Range(lo, hi)
			}
		}
		nRows := 1 + rng.Intn(6)
		for r := 0; r < nRows; r++ {
			coefs := wideRow(rng, nVars, 1+rng.Intn(6))
			v, scale := 0.0, 1.0
			for _, c := range coefs {
				v += c.Val * x[c.Var]
				scale = max(scale, math.Abs(c.Val))
			}
			rtol := tol * scale * float64(1+len(coefs))
			p.AddConstraint(Rel(rng.Intn(3)), v+rng.Range(-1.5, 1.5)*rtol, coefs...)
		}
		got, want := p.CheckFeasible(x, tol), checkFeasibleUnscaled(p, x, tol)
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("trial %d: CheckFeasible %v, unscaled reference %v", trial, got, want)
		}
		verdicts[got == nil]++
	}
	if verdicts[true] < 20 || verdicts[false] < 20 {
		t.Fatalf("verdicts %v: the points do not straddle the tolerances", verdicts)
	}
}

// TestRescaledRowReplacesItsBasicColumns: a patch that moves a row's scale
// re-stores the whole row, so Precompute stamps every structural column of
// the row with a new patch version, and a carried factorization replaces
// each of them that is basic at install. The warm re-solve must still equal
// a cold one and a refactorize-on-install one in objective, point and duals.
func TestRescaledRowReplacesItsBasicColumns(t *testing.T) {
	p := randomCovering(4711)
	first, err := p.Solve()
	if err != nil || first.Status != Optimal {
		t.Fatalf("%v %v", first.Status, err)
	}
	basicIn := make(map[int]bool)
	for _, c := range first.Basis.Fact.basis {
		basicIn[c] = true
	}
	// The row with the most basic structural columns.
	row, basics := -1, 0
	for r := 0; r < p.NumRows(); r++ {
		cols := make(map[int]bool)
		for _, c := range p.RowCoefs(r) {
			if basicIn[c.Var] {
				cols[c.Var] = true
			}
		}
		if len(cols) > basics {
			row, basics = r, len(cols)
		}
	}
	if basics < 2 {
		t.Fatal("no row with two basic structural columns")
	}
	big := 0
	for k, c := range p.RowCoefs(row) {
		if math.Abs(c.Val) > math.Abs(p.RowCoef(row, big).Val) {
			big = k
		}
	}
	scale, ver := p.rows[row].scale, p.patchVer
	target := p.RowCoef(row, big)
	p.SetRowCoef(row, big, target.Val*4)
	for _, c := range p.RowCoefs(row) {
		if stamped := p.patchedSince(c.Var, ver); stamped != (c.Var == target.Var) {
			t.Fatalf("before Precompute: column %d stamped %v", c.Var, stamped)
		}
	}
	p.Precompute()
	if p.rows[row].scale == scale {
		t.Fatalf("quadrupling the largest entry kept the row's scale %g", scale)
	}
	for _, c := range p.RowCoefs(row) {
		if p.colVer[c.Var] != p.patchVer {
			t.Fatalf("column %d of the rescaled row not stamped with the rescale's version", c.Var)
		}
	}
	warm, err := p.SolveOpts(Options{WarmStart: first.Basis})
	if err != nil {
		t.Fatal(err)
	}
	if warm.Status != Optimal {
		t.Fatalf("warm re-solve after rescale: %v", warm.Status)
	}
	if warm.Stats.FTUpdates != 1 || warm.Stats.Replacements != basics || warm.Stats.WarmFallbacks != 0 {
		t.Fatalf("rescale: %+v, want one adoption replacing all %d basic columns of the row", warm.Stats, basics)
	}
	sameOptimum(t, "rescaled", p, first.Basis, warm)
}
