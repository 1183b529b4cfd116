package lp

// The dense two-phase bounded-variable tableau simplex. This was the
// original solver of the repository and is kept as the tests' golden
// reference: it shares no code with the sparse revised simplex, so
// agreement between the two on an instance is strong evidence both are
// correct. Tests cross-check sparse optima against it (solveDense; the
// external test package reaches it through export_test.go).

import "math"

// solveDense solves p with the dense reference tableau. Its Solution
// carries the status, point, objective and pivot count; no basis, duals or
// factorization stats.
func solveDense(p *Problem) *Solution {
	s := newDenseSimplex(p)
	st := s.run()
	sol := &Solution{Status: st, Iterations: s.iters}
	if st == Optimal || st == IterLimit {
		sol.X = s.extract()
		sol.Objective = p.objectiveOf(sol.X)
	}
	return sol
}

// denseSimplex is the working state: a dense tableau over columns
// [structural | slack | artificial], all shifted so lower bounds are 0.
type denseSimplex struct {
	p *Problem

	m, n     int // rows, total columns
	nStruct  int
	nSlack   int
	tab      [][]float64 // m × n tableau, kept equal to B^{-1}A
	beta     []float64   // current basic values (shifted space)
	basis    []int       // basis[r] = column basic in row r
	stat     []vstat
	lo, hi   []float64 // shifted bounds: lo=0 for all, hi possibly +Inf
	shift    []float64 // original lower bounds of structural vars
	zrow     []float64 // reduced costs for current phase
	cost     []float64 // phase-2 costs per column
	artFirst int       // first artificial column
	iters    int
	maxIters int
	bland    bool
}

func newDenseSimplex(p *Problem) *denseSimplex {
	m := len(p.rows)
	s := &denseSimplex{p: p, m: m, nStruct: p.n}
	s.nSlack = 0
	for _, r := range p.rows {
		if r.rel != EQ {
			s.nSlack++
		}
	}
	// Worst case one artificial per row.
	maxCols := p.n + s.nSlack + m
	s.tab = make([][]float64, m)
	backing := make([]float64, m*maxCols)
	for r := range s.tab {
		s.tab[r], backing = backing[:maxCols:maxCols], backing[maxCols:]
	}
	s.beta = make([]float64, m)
	s.basis = make([]int, m)
	s.lo = make([]float64, maxCols)
	s.hi = make([]float64, maxCols)
	s.stat = make([]vstat, maxCols)
	s.cost = make([]float64, maxCols)
	s.zrow = make([]float64, maxCols)
	s.shift = make([]float64, p.n)

	// Structural columns, shifted to lower bound 0.
	for j := 0; j < p.n; j++ {
		s.shift[j] = p.lo[j]
		s.lo[j] = 0
		if math.IsInf(p.hi[j], 1) {
			s.hi[j] = math.Inf(1)
		} else {
			s.hi[j] = p.hi[j] - p.lo[j]
		}
		s.cost[j] = p.obj[j]
		s.stat[j] = atLower
	}

	// Fill rows: structural coefficients and shifted rhs, read as set
	// (RowCoefs, RHS), not as the sparse solver stores them scaled, so the
	// two solvers share no numerics.
	rhs := make([]float64, m)
	for r := range p.rows {
		_, b := p.RHS(r)
		for _, c := range p.RowCoefs(r) {
			s.tab[r][c.Var] += c.Val
			b -= c.Val * s.shift[c.Var]
		}
		rhs[r] = b
	}

	// Slack columns and initial basis; artificials where needed.
	col := p.n
	s.artFirst = p.n + s.nSlack
	artCol := s.artFirst
	for r, rw := range p.rows {
		switch rw.rel {
		case LE:
			s.tab[r][col] = 1
			s.hi[col] = math.Inf(1)
			if rhs[r] >= 0 {
				s.setBasic(r, col, rhs[r])
			} else {
				s.stat[col] = atLower
				s.tab[r][artCol] = -1
				s.hi[artCol] = math.Inf(1)
				s.setBasic(r, artCol, -rhs[r])
				artCol++
			}
			col++
		case GE:
			s.tab[r][col] = -1
			s.hi[col] = math.Inf(1)
			if rhs[r] <= 0 {
				s.setBasic(r, col, -rhs[r])
			} else {
				s.stat[col] = atLower
				s.tab[r][artCol] = 1
				s.hi[artCol] = math.Inf(1)
				s.setBasic(r, artCol, rhs[r])
				artCol++
			}
			col++
		case EQ:
			if rhs[r] >= 0 {
				s.tab[r][artCol] = 1
				s.setBasic(r, artCol, rhs[r])
			} else {
				s.tab[r][artCol] = -1
				s.setBasic(r, artCol, -rhs[r])
			}
			s.hi[artCol] = math.Inf(1)
			artCol++
		}
	}
	s.n = artCol
	// Truncate tableau rows to the actual column count.
	for r := range s.tab {
		s.tab[r] = s.tab[r][:s.n]
	}
	// The initial basis must appear as an identity in the tableau. GE
	// slacks and negative-rhs artificials enter with coefficient -1, so
	// negate those rows (the basic variable's *value* beta is unaffected:
	// it is a value, not a transformed rhs).
	for r := 0; r < s.m; r++ {
		if s.tab[r][s.basis[r]] == -1 {
			trow := s.tab[r]
			for j := range trow {
				trow[j] = -trow[j]
			}
		}
	}
	s.lo = s.lo[:s.n]
	s.hi = s.hi[:s.n]
	s.stat = s.stat[:s.n]
	s.cost = s.cost[:s.n]
	s.zrow = s.zrow[:s.n]

	s.maxIters = 200*(m+s.n) + 2000
	return s
}

func (s *denseSimplex) setBasic(r, col int, val float64) {
	s.basis[r] = col
	s.stat[col] = basic
	s.beta[r] = val
}

// run executes phase 1 (if artificials exist) and phase 2.
func (s *denseSimplex) run() Status {
	hasArt := s.n > s.artFirst
	if hasArt {
		// Phase-1 objective: minimize sum of artificials.
		phase1 := make([]float64, s.n)
		for j := s.artFirst; j < s.n; j++ {
			phase1[j] = 1
		}
		s.installObjective(phase1)
		st := s.iterate()
		if st != Optimal {
			if st == Unbounded {
				// Phase-1 objective is bounded below by 0; an
				// unbounded report means numerical trouble.
				return Infeasible
			}
			return st
		}
		if s.phaseObjective(phase1) > tolArt {
			return Infeasible
		}
		// Freeze artificials at zero.
		for j := s.artFirst; j < s.n; j++ {
			s.hi[j] = 0
			if s.stat[j] == atUpper {
				s.stat[j] = atLower
			}
		}
	}
	s.installObjective(s.cost)
	return s.iterate()
}

// phaseObjective computes c·x for the given per-column costs at the current
// point (in shifted space).
func (s *denseSimplex) phaseObjective(c []float64) float64 {
	v := 0.0
	for j := 0; j < s.n; j++ {
		switch s.stat[j] {
		case atLower:
			v += c[j] * s.lo[j]
		case atUpper:
			v += c[j] * s.hi[j]
		}
	}
	for r := 0; r < s.m; r++ {
		v += c[s.basis[r]] * s.beta[r]
	}
	return v
}

// installObjective recomputes the reduced-cost row for costs c:
// zrow_j = c_j − c_B · tab_j.
func (s *denseSimplex) installObjective(c []float64) {
	copy(s.zrow, c)
	for r := 0; r < s.m; r++ {
		cb := c[s.basis[r]]
		if cb == 0 {
			continue
		}
		trow := s.tab[r]
		for j := 0; j < s.n; j++ {
			s.zrow[j] -= cb * trow[j]
		}
	}
	// Basic columns have zero reduced cost by construction; clamp
	// accumulated error.
	for r := 0; r < s.m; r++ {
		s.zrow[s.basis[r]] = 0
	}
}

// iterate runs simplex pivots until optimal/unbounded/limit.
func (s *denseSimplex) iterate() Status {
	blandAfter := 20*(s.m+s.n) + 1000
	start := s.iters
	for {
		if s.iters-start > blandAfter {
			s.bland = true
		}
		if s.iters >= s.maxIters {
			return IterLimit
		}
		j, dir := s.chooseEntering()
		if j < 0 {
			return Optimal
		}
		st := s.ratioTestAndPivot(j, dir)
		if st != 0 {
			return st
		}
		s.iters++
	}
}

// chooseEntering returns the entering column and direction (+1 when the
// variable increases from its lower bound, -1 when it decreases from its
// upper bound), or (-1, 0) at optimality.
func (s *denseSimplex) chooseEntering() (int, float64) {
	bestJ, bestDir, bestScore := -1, 0.0, tolCost
	for j := 0; j < s.n; j++ {
		switch s.stat[j] {
		case basic:
			continue
		case atLower:
			if d := -s.zrow[j]; d > bestScore {
				if s.bland {
					return j, 1
				}
				bestJ, bestDir, bestScore = j, 1, d
			}
		case atUpper:
			if d := s.zrow[j]; d > bestScore {
				if s.bland {
					return j, -1
				}
				bestJ, bestDir, bestScore = j, -1, d
			}
		}
	}
	return bestJ, bestDir
}

// ratioTestAndPivot moves entering column j in direction dir, performing a
// bound flip or a basis change. Returns a terminal status or 0 to continue.
func (s *denseSimplex) ratioTestAndPivot(j int, dir float64) Status {
	// Maximum step before j hits its own opposite bound.
	tMax := s.hi[j] - s.lo[j] // may be +Inf
	leaveRow := -1
	leaveToUpper := false
	bestPivot := 0.0
	t := tMax
	for r := 0; r < s.m; r++ {
		a := s.tab[r][j] * dir
		if a > tolPivot {
			// Basic variable decreases toward its lower bound.
			lim := (s.beta[r] - s.lo[s.basis[r]]) / a
			if lim < t-1e-12 || (lim < t+1e-12 && math.Abs(s.tab[r][j]) > math.Abs(bestPivot)) {
				if lim < 0 {
					lim = 0
				}
				t = lim
				leaveRow = r
				leaveToUpper = false
				bestPivot = s.tab[r][j]
			}
		} else if a < -tolPivot {
			// Basic variable increases toward its upper bound.
			ub := s.hi[s.basis[r]]
			if math.IsInf(ub, 1) {
				continue
			}
			lim := (ub - s.beta[r]) / (-a)
			if lim < t-1e-12 || (lim < t+1e-12 && math.Abs(s.tab[r][j]) > math.Abs(bestPivot)) {
				if lim < 0 {
					lim = 0
				}
				t = lim
				leaveRow = r
				leaveToUpper = true
				bestPivot = s.tab[r][j]
			}
		}
	}
	if math.IsInf(t, 1) {
		return Unbounded
	}
	// Apply the step to basic values.
	if t != 0 {
		step := t * dir
		for r := 0; r < s.m; r++ {
			s.beta[r] -= s.tab[r][j] * step
		}
	}
	if leaveRow < 0 {
		// Bound flip: j traverses to its opposite bound.
		if dir > 0 {
			s.stat[j] = atUpper
		} else {
			s.stat[j] = atLower
		}
		return 0
	}
	// Basis change: j enters at value (bound + t·dir), basis[leaveRow]
	// leaves to one of its bounds.
	leaving := s.basis[leaveRow]
	if leaveToUpper {
		s.stat[leaving] = atUpper
	} else {
		s.stat[leaving] = atLower
	}
	var enterVal float64
	if dir > 0 {
		enterVal = s.lo[j] + t
	} else {
		enterVal = s.hi[j] - t
	}
	s.basis[leaveRow] = j
	s.stat[j] = basic
	s.beta[leaveRow] = enterVal
	s.eliminate(leaveRow, j)
	return 0
}

// eliminate performs the Gauss–Jordan pivot on (prow, pcol), updating the
// tableau and the reduced-cost row. Basic values are NOT touched: a basis
// swap does not move the current point (the step was already applied by the
// ratio test).
func (s *denseSimplex) eliminate(prow, pcol int) {
	piv := s.tab[prow][pcol]
	prowData := s.tab[prow]
	if piv != 1 {
		inv := 1 / piv
		for j := range prowData {
			prowData[j] *= inv
		}
		prowData[pcol] = 1 // exact
	}
	for r := 0; r < s.m; r++ {
		if r == prow {
			continue
		}
		f := s.tab[r][pcol]
		if f == 0 {
			continue
		}
		trow := s.tab[r]
		for j := range trow {
			trow[j] -= f * prowData[j]
		}
		trow[pcol] = 0 // exact
	}
	if f := s.zrow[pcol]; f != 0 {
		for j := range s.zrow {
			s.zrow[j] -= f * prowData[j]
		}
		s.zrow[pcol] = 0
	}
}

// extract returns structural variable values in original (unshifted) space.
func (s *denseSimplex) extract() []float64 {
	x := make([]float64, s.nStruct)
	for j := 0; j < s.nStruct; j++ {
		switch s.stat[j] {
		case atLower:
			x[j] = s.shift[j]
		case atUpper:
			x[j] = s.shift[j] + s.hi[j]
		}
	}
	for r := 0; r < s.m; r++ {
		if b := s.basis[r]; b < s.nStruct {
			v := s.beta[r]
			// Clamp tiny negative noise into bounds.
			if v < 0 && v > -tolFeas {
				v = 0
			}
			x[b] = s.shift[b] + v
		}
	}
	return x
}
