package lp

// The sparse bounded-variable revised simplex. Columns are stored once in
// CSC form (structural) or implicitly (slack/artificial singletons); the
// basis inverse is an elimination-form eta file rebuilt every refactorEvery
// pivots. See the package comment for the design overview.

import (
	"fmt"
	"math"
	"slices"
	"sync"
)

// cscMatrix holds the structural columns in compressed-sparse-column form.
type cscMatrix struct {
	colPtr []int32
	rowIdx []int32
	val    []float64
}

// buildCSC converts the row-wise Problem into column-wise storage.
// Duplicate (row, var) entries are kept as-is: every linear operation the
// solver performs (scatter, dot product) sums them naturally.
func buildCSC(p *Problem) *cscMatrix {
	n := p.n
	counts := make([]int32, n+1)
	nnz := 0
	for _, rw := range p.rows {
		for _, c := range rw.coefs {
			counts[c.Var+1]++
			nnz++
		}
	}
	csc := &cscMatrix{
		colPtr: counts,
		rowIdx: make([]int32, nnz),
		val:    make([]float64, nnz),
	}
	for j := 0; j < n; j++ {
		csc.colPtr[j+1] += csc.colPtr[j]
	}
	next := make([]int32, n)
	for j := 0; j < n; j++ {
		next[j] = csc.colPtr[j]
	}
	for r, rw := range p.rows {
		for _, c := range rw.coefs {
			q := next[c.Var]
			csc.rowIdx[q] = int32(r)
			csc.val[q] = c.Val
			next[c.Var] = q + 1
		}
	}
	return csc
}

// colNNZ returns the entry count of structural column j.
func (c *cscMatrix) colNNZ(j int) int { return int(c.colPtr[j+1] - c.colPtr[j]) }

// find returns the arena index of the (row r, column j) entry, or -1 when
// the entry does not exist or is ambiguous (duplicate (row, var) pairs in
// one constraint). Within a column buildCSC emits entries in ascending row
// order — rows are scanned 0..m — so a binary search suffices.
func (c *cscMatrix) find(j int, r int32) int {
	lo, hi := int(c.colPtr[j]), int(c.colPtr[j+1])
	for lo < hi {
		mid := (lo + hi) / 2
		if c.rowIdx[mid] < r {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo >= int(c.colPtr[j+1]) || c.rowIdx[lo] != r {
		return -1
	}
	if lo+1 < int(c.colPtr[j+1]) && c.rowIdx[lo+1] == r {
		return -1 // duplicate entries: caller must fall back to a rebuild
	}
	return lo
}

// etaFile is a sequence of elementary (eta) matrices — identity with one
// replaced column — stored in one shared arena so refactorization allocates
// nothing after warm-up. The basis inverse is kept in elimination form:
//
//	B⁻¹ = F_k⁻¹ ··· F_1⁻¹ · U⁻¹ · E_m ··· E_1
//
// where the E_t (file `lower`) are the Gaussian elimination steps of the
// last refactorization (each eliminates the pivot column in the rows not
// yet pivoted — triangular, so the file stays near nnz(B)), U⁻¹ (file
// `upper`) is the column-oriented back-substitution of the resulting upper
// factor, and the F⁻¹ (file `updates`) are the product-form pivot updates
// accumulated since. Each traversal direction below applies one factor
// group of that operator.
type etaFile struct {
	prow  []int32   // pivot row of each eta
	pval  []float64 // 1/pivot of each eta
	start []int32   // arena offsets, len(prow)+1
	idx   []int32   // off-pivot row indices
	val   []float64 // off-pivot values
}

func newEtaFile() *etaFile {
	return &etaFile{start: make([]int32, 1, 64)}
}

func (e *etaFile) reset() *etaFile {
	e.prow = e.prow[:0]
	e.pval = e.pval[:0]
	e.start = e.start[:1]
	e.idx = e.idx[:0]
	e.val = e.val[:0]
	return e
}

func (e *etaFile) count() int { return len(e.prow) }

// copyFrom makes e an independent copy of src (reusing e's arenas when they
// are large enough). Adopting a carried Factorization copies its files so
// the handle can seed any number of later warm starts untouched.
func (e *etaFile) copyFrom(src *etaFile) {
	e.prow = append(e.prow[:0], src.prow...)
	e.pval = append(e.pval[:0], src.pval...)
	e.start = append(e.start[:0], src.start...)
	e.idx = append(e.idx[:0], src.idx...)
	e.val = append(e.val[:0], src.val...)
}

// etaDrop is the absolute magnitude below which off-pivot eta entries are
// discarded. Kept far below the solver tolerances; the periodic
// refactorization and the final feasibility audit bound its effect.
const etaDrop = 1e-13

// push records the Gauss–Jordan eta of pivoting column d on row p.
// Identity etas (unit pivot, no off-pivot fill) are skipped.
func (e *etaFile) push(d []float64, p int) {
	piv := d[p]
	identity := piv == 1
	if identity {
		for r, v := range d {
			if r != p && (v > etaDrop || v < -etaDrop) {
				identity = false
				break
			}
		}
		if identity {
			return
		}
	}
	inv := 1 / piv
	e.prow = append(e.prow, int32(p))
	e.pval = append(e.pval, inv)
	for r, v := range d {
		if r == p || (v <= etaDrop && v >= -etaDrop) {
			continue
		}
		e.idx = append(e.idx, int32(r))
		e.val = append(e.val, -v*inv)
	}
	e.start = append(e.start, int32(len(e.idx)))
}

// pushParts records an eta with explicit pivot value and entry list.
func (e *etaFile) pushParts(p int, piv float64, rows []int32, vals []float64) {
	inv := 1 / piv
	e.prow = append(e.prow, int32(p))
	e.pval = append(e.pval, inv)
	for i, r := range rows {
		e.idx = append(e.idx, r)
		e.val = append(e.val, -vals[i]*inv)
	}
	e.start = append(e.start, int32(len(e.idx)))
}

// ftranFwd applies the etas oldest-first as column operations.
func (e *etaFile) ftranFwd(x []float64) {
	for k := 0; k < len(e.prow); k++ {
		p := e.prow[k]
		t := x[p]
		if t == 0 {
			continue
		}
		x[p] = e.pval[k] * t
		for q := e.start[k]; q < e.start[k+1]; q++ {
			x[e.idx[q]] += e.val[q] * t
		}
	}
}

// ftranRev applies the etas newest-first as column operations (the
// back-substitution order of the upper factor).
func (e *etaFile) ftranRev(x []float64) {
	for k := len(e.prow) - 1; k >= 0; k-- {
		p := e.prow[k]
		t := x[p]
		if t == 0 {
			continue
		}
		x[p] = e.pval[k] * t
		for q := e.start[k]; q < e.start[k+1]; q++ {
			x[e.idx[q]] += e.val[q] * t
		}
	}
}

// btranRev applies the etas newest-first as row operations (y ← y·E): only
// the pivot component of y changes per eta.
func (e *etaFile) btranRev(y []float64) {
	for k := len(e.prow) - 1; k >= 0; k-- {
		p := e.prow[k]
		v := y[p] * e.pval[k]
		for q := e.start[k]; q < e.start[k+1]; q++ {
			v += y[e.idx[q]] * e.val[q]
		}
		y[p] = v
	}
}

// btranFwd applies the etas oldest-first as row operations.
func (e *etaFile) btranFwd(y []float64) {
	for k := 0; k < len(e.prow); k++ {
		p := e.prow[k]
		v := y[p] * e.pval[k]
		for q := e.start[k]; q < e.start[k+1]; q++ {
			v += y[e.idx[q]] * e.val[q]
		}
		y[p] = v
	}
}

// sparse is the revised-simplex working state.
type sparse struct {
	p    *Problem
	opts Options

	m, n  int // rows, structural columns
	ncols int // n + 2m: structural, slack, artificial
	csc   *cscMatrix

	slackSign []float64 // per row: +1 (LE, EQ) or -1 (GE)
	artSign   []float64 // per row: chosen by the cold crash
	phase1    bool      // artificials free in [0, +Inf)

	// clo/chi/ccost flatten bounds() and cost() into arrays for the hot
	// loops; setPhase rebuilds the phase-dependent slices (artificial
	// bounds, objective row).
	clo, chi []float64
	ccost    []float64

	stat  []vstat
	basis []int // basis[r] = column basic in row r
	beta  []float64

	// Basis inverse in elimination form (see etaFile): lower/upper from
	// the last refactorization, updates appended per pivot since.
	lower, upper, updates *etaFile
	refactorEvery         int

	iters    int
	maxIters int
	bland    bool
	stats    SolveStats

	// scratch, sized m
	colBuf []float64
	yBuf   []float64
	rhsBuf []float64
	pivBuf []bool
	rowBuf []int

	alphaBuf []float64 // pivot row over the structural columns, sized n

	// refactorization scratch, reused across refactorizations
	refCnt     []int32
	refRowPtr  []int32
	refRowAdj  []int32
	refBuckets [][]int32
	refDone    []bool
	refLoRows  []int32
	refLoVals  []float64
	refUpRows  []int32
	refUpVals  []float64
	refEtaOf   []int32 // per row: index of the lower eta pivoted on it, or -1
	refMark    []bool  // per row: colBuf entry touched by the current column
	refTouched []int32 // rows touched by the current column
	refHeap    etaHeap // lower etas the current column still has to reach
}

// workspaces recycles the working arrays of finished solves, so that
// newSparse starts each array as a fresh one would without allocating it.
// Per-solve arrays would be half of the live engine's garbage, and every
// collection that garbage drives is a chance for a stalled mark phase to
// let the heap, and with it the peak resident set, overshoot.
var workspaces sync.Pool

// fit returns buf as n zeroed elements, reusing its array when large enough.
func fit[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	clear(buf[:n])
	return buf[:n]
}

func newSparse(p *Problem, opts Options) *sparse {
	m := len(p.rows)
	p.Precompute()
	s, _ := workspaces.Get().(*sparse)
	if s == nil {
		s = &sparse{}
	}
	w := *s // the recycled arrays, while *s is rebuilt below
	if w.lower == nil {
		w.lower, w.upper, w.updates = newEtaFile(), newEtaFile(), newEtaFile()
	}
	*s = sparse{
		p: p, opts: opts,
		m: m, n: p.n, ncols: p.n + 2*m,
		csc:       p.csc,
		slackSign: fit(w.slackSign, m),
		artSign:   fit(w.artSign, m),
		stat:      fit(w.stat, p.n+2*m),
		basis:     fit(w.basis, m),
		beta:      fit(w.beta, m),
		lower:     w.lower.reset(),
		upper:     w.upper.reset(),
		updates:   w.updates.reset(),
		colBuf:    fit(w.colBuf, m),
		yBuf:      fit(w.yBuf, m),
		rhsBuf:    fit(w.rhsBuf, m),
		pivBuf:    fit(w.pivBuf, m),
		rowBuf:    fit(w.rowBuf, m),
		alphaBuf:  fit(w.alphaBuf, p.n),
		clo:       fit(w.clo, p.n+2*m),
		chi:       fit(w.chi, p.n+2*m),
		ccost:     fit(w.ccost, p.n+2*m),

		refCnt:     fit(w.refCnt, m),
		refRowPtr:  fit(w.refRowPtr, m+2),
		refBuckets: fit(w.refBuckets, m+2),
		refDone:    fit(w.refDone, m),
		refEtaOf:   fit(w.refEtaOf, m),
		refMark:    fit(w.refMark, m),
		refTouched: fit(w.refTouched, m)[:0],
		refHeap:    fit(w.refHeap, m)[:0],
	}
	for r, rw := range p.rows {
		if rw.rel == GE {
			s.slackSign[r] = -1
		} else {
			s.slackSign[r] = 1
		}
		s.artSign[r] = 1
	}
	s.setPhase(false)
	s.maxIters = opts.maxIters
	if s.maxIters <= 0 {
		s.maxIters = 200*(m+s.ncols) + 2000
	}
	// The cadence fixes where every refactorization falls, and with it every
	// pivot path, so it is kept as it was tuned when a refactorization cost
	// ~m² against traversing the ~refactorEvery·m update file. The sparse
	// elimination made refactorization cheap; retuning the cadence for it is
	// a measured follow-up.
	s.refactorEvery = 16 + 2*int(math.Sqrt(float64(m)))
	return s
}

// release hands s's arrays to the next solve. The caller must not use s
// afterwards; a Solution copies out everything it keeps except the eta
// files of a snapshotted factorization, which stay with the snapshot.
func (s *sparse) release(snapshotted bool) {
	if snapshotted {
		s.lower, s.upper, s.updates = nil, nil, nil
	}
	s.p, s.csc, s.opts = nil, nil, Options{}
	workspaces.Put(s)
}

// emit forwards a solver-internal event to the Options.Events subscriber,
// stamped with the current pivot iteration. Kept out of line so the stats
// sites stay one-line increments.
func (s *sparse) emit(k EventKind) {
	if s.opts.Events != nil {
		s.opts.Events(Event{Kind: k, Iteration: s.iters})
	}
}

// setPhase installs the phase-dependent per-column bounds and costs:
// phase 1 frees the artificials in [0, +Inf) and prices only them; phase 2
// pins artificials to [0,0] and installs the true objective.
func (s *sparse) setPhase(phase1 bool) {
	s.phase1 = phase1
	inf := math.Inf(1)
	for j := 0; j < s.n; j++ {
		s.clo[j], s.chi[j] = s.p.lo[j], s.p.hi[j]
		if phase1 {
			s.ccost[j] = 0
		} else {
			s.ccost[j] = s.p.obj[j]
		}
	}
	for r, rw := range s.p.rows {
		slack, art := s.n+r, s.n+s.m+r
		s.clo[slack], s.ccost[slack] = 0, 0
		if rw.rel == EQ {
			s.chi[slack] = 0
		} else {
			s.chi[slack] = inf
		}
		s.clo[art] = 0
		if phase1 {
			s.chi[art], s.ccost[art] = inf, 1
		} else {
			s.chi[art], s.ccost[art] = 0, 0
		}
	}
}

// bounds returns the box of column j under the current phase.
func (s *sparse) bounds(j int) (lo, hi float64) {
	return s.clo[j], s.chi[j]
}

// cost returns the objective coefficient of column j under the current
// phase.
func (s *sparse) cost(j int) float64 { return s.ccost[j] }

// xval returns the current value of nonbasic column j.
func (s *sparse) xval(j int) float64 {
	if s.stat[j] == atUpper {
		return s.chi[j]
	}
	return s.clo[j]
}

// scatterColumn adds column j of the constraint matrix into dense x.
func (s *sparse) scatterColumn(j int, x []float64) {
	switch {
	case j < s.n:
		for q := s.csc.colPtr[j]; q < s.csc.colPtr[j+1]; q++ {
			x[s.csc.rowIdx[q]] += s.csc.val[q]
		}
	case j < s.n+s.m:
		r := j - s.n
		x[r] += s.slackSign[r]
	default:
		r := j - s.n - s.m
		x[r] += s.artSign[r]
	}
}

// ftran applies the full basis inverse to the column vector x.
func (s *sparse) ftran(x []float64) {
	s.lower.ftranFwd(x)
	s.upper.ftranRev(x)
	s.updates.ftranFwd(x)
}

// btran applies the full basis inverse to the row vector y.
func (s *sparse) btran(y []float64) {
	s.updates.btranRev(y)
	s.upper.btranFwd(y)
	s.lower.btranRev(y)
}

// ftranColumn returns B⁻¹·(column j) in the shared scratch buffer.
func (s *sparse) ftranColumn(j int) []float64 {
	d := s.colBuf
	for i := range d {
		d[i] = 0
	}
	s.scatterColumn(j, d)
	s.ftran(d)
	return d
}

// reducedCost computes c_j − y·a_j for the BTRAN vector y.
func (s *sparse) reducedCost(j int, y []float64) float64 {
	c := s.cost(j)
	switch {
	case j < s.n:
		for q := s.csc.colPtr[j]; q < s.csc.colPtr[j+1]; q++ {
			c -= y[s.csc.rowIdx[q]] * s.csc.val[q]
		}
	case j < s.n+s.m:
		r := j - s.n
		c -= y[r] * s.slackSign[r]
	default:
		r := j - s.n - s.m
		c -= y[r] * s.artSign[r]
	}
	return c
}

// btranCost returns y = c_B·B⁻¹ in the shared scratch buffer.
func (s *sparse) btranCost() []float64 { return s.btranCostInto(s.yBuf) }

// colRow returns the row of singleton (slack/artificial) column c.
func (s *sparse) colRow(c int) int {
	if c < s.n+s.m {
		return c - s.n
	}
	return c - s.n - s.m
}

// refactor rebuilds the basis factorization from scratch by sparse
// Gaussian elimination over the current basis columns: each column yields
// one lower eta (the elimination over not-yet-pivoted rows) and one upper
// eta (its back-substitution entries in already-pivoted rows), leaving the
// update file empty. Columns are eliminated in order of their
// dynamically-updated count of entries in unpivoted rows (a greedy
// triangularization, tracked with a bucket queue): columns that become
// singletons as rows pivot out are eliminated first, which keeps fill —
// and therefore both factor files — near nnz(B). Partial pivoting on
// magnitude within each column's unpivoted rows guards numerics. Each
// column costs time in proportion to the entries it touches, up to the
// logarithm from its eta heap and row sort (see eliminate), so a
// refactorization costs O(m) plus about the size of its factors, not
// O(m²). Reassigns basis rows and recomputes beta; returns false if the
// basis is numerically singular.
func (s *sparse) refactor() bool { return s.factor(false) }

// factor is refactor's elimination. With repair set (a warm-start install
// only) a singular basis does not fail: each column that finds no usable
// pivot is dependent on the columns already eliminated, so it leaves the
// basis at its lower bound (always finite), and the slack of each row left
// unpivoted takes its place. Mid-solve refactorizations never repair: a
// basis the solver's own pivots made singular is numerical breakdown, which
// ends the attempt (IterLimit with pivots to spare).
func (s *sparse) factor(repair bool) bool {
	s.lower.reset()
	s.upper.reset()
	s.updates.reset()
	m := s.m
	cols := s.rowBuf[:m]
	copy(cols, s.basis)

	// cnt[k]: entries of basis column k in unpivoted rows. rowAdj lists,
	// per row, the basis columns touching it (to decrement counts as rows
	// pivot out). Zero-count columns are parked in the overflow bucket m+1
	// and tried last: elimination fill can still make them pivotable.
	cnt := s.refCnt
	rowPtr := s.refRowPtr
	for i := range rowPtr {
		rowPtr[i] = 0
	}
	for k, c := range cols {
		if c < s.n {
			cnt[k] = int32(s.csc.colNNZ(c))
			for q := s.csc.colPtr[c]; q < s.csc.colPtr[c+1]; q++ {
				rowPtr[s.csc.rowIdx[q]+2]++
			}
		} else {
			cnt[k] = 1
			rowPtr[s.colRow(c)+2]++
		}
	}
	for r := 1; r < m+2; r++ {
		rowPtr[r] += rowPtr[r-1]
	}
	if cap(s.refRowAdj) < int(rowPtr[m+1]) {
		s.refRowAdj = make([]int32, rowPtr[m+1])
	}
	rowAdj := s.refRowAdj[:rowPtr[m+1]]
	for k, c := range cols {
		if c < s.n {
			for q := s.csc.colPtr[c]; q < s.csc.colPtr[c+1]; q++ {
				r := s.csc.rowIdx[q] + 1
				rowAdj[rowPtr[r]] = int32(k)
				rowPtr[r]++
			}
		} else {
			r := s.colRow(c) + 1
			rowAdj[rowPtr[r]] = int32(k)
			rowPtr[r]++
		}
	}
	// Bucket queue with lazy deletion: a column is appended to a bucket
	// each time its count drops, so stale entries (recorded bucket no
	// longer matching the live count) are skipped at pop time.
	buckets := s.refBuckets
	for b := range buckets {
		buckets[b] = buckets[b][:0]
	}
	bucketOf := func(k int32) int32 {
		switch {
		case cnt[k] == 0:
			return int32(m + 1)
		case cnt[k] > int32(m):
			// Only duplicate (row, var) entries count past m.
			return int32(m)
		}
		return cnt[k]
	}
	push := func(k int32) {
		b := bucketOf(k)
		buckets[b] = append(buckets[b], k)
	}
	for k := range cols {
		push(int32(k))
	}
	done := s.refDone
	pivoted := s.pivBuf
	d := s.colBuf
	for r := range pivoted {
		done[r] = false
		pivoted[r] = false
		s.refEtaOf[r] = -1
		d[r] = 0 // eliminate keeps colBuf zero between columns
	}
	loRows, upRows := s.refLoRows, s.refUpRows
	loVals, upVals := s.refLoVals, s.refUpVals

	minB := int32(1)
	repaired := 0
	for picked := 0; picked < m; picked++ {
		// Pop the lowest-bucket live column.
		k := int32(-1)
		for ; minB <= int32(m+1); minB++ {
			b := buckets[minB]
			for len(b) > 0 {
				cand := b[len(b)-1]
				b = b[:len(b)-1]
				if !done[cand] && bucketOf(cand) == minB {
					k = cand
					break
				}
			}
			buckets[minB] = b
			if k >= 0 {
				break
			}
		}
		if k < 0 {
			return false
		}
		done[k] = true
		c := cols[k]
		// Split the transformed column, in ascending row order: unpivoted
		// rows feed the lower (elimination) eta, pivoted rows the upper
		// (back-substitution) eta. The pivot is the first largest unpivoted
		// entry. Rows the column never touched hold 0 and would be dropped.
		best, bv, piv := -1, 0.0, 0.0
		loRows, loVals = loRows[:0], loVals[:0]
		upRows, upVals = upRows[:0], upVals[:0]
		for _, r := range s.eliminate(c) {
			v := d[r]
			d[r] = 0
			if v <= etaDrop && v >= -etaDrop {
				continue
			}
			if pivoted[r] {
				upRows = append(upRows, r)
				upVals = append(upVals, v)
				continue
			}
			loRows = append(loRows, r)
			loVals = append(loVals, v)
			if a := math.Abs(v); a > bv {
				best, bv, piv = int(r), a, v
			}
		}
		if bv < 1e-10 {
			if !repair {
				return false
			}
			s.stat[c] = atLower
			repaired++
			continue
		}
		// Drop the pivot itself from the lower entry list.
		for i, r := range loRows {
			if int(r) == best {
				last := len(loRows) - 1
				loRows[i], loVals[i] = loRows[last], loVals[last]
				loRows, loVals = loRows[:last], loVals[:last]
				break
			}
		}
		if piv != 1 || len(loRows) > 0 {
			s.lower.pushParts(best, piv, loRows, loVals)
			s.refEtaOf[best] = int32(s.lower.count() - 1)
		}
		if len(upRows) > 0 {
			// The lower eta scaled the diagonal to 1, so the upper eta's
			// pivot value is 1.
			s.upper.pushParts(best, 1, upRows, upVals)
		}
		pivoted[best] = true
		s.basis[best] = c
		// Row `best` left the unpivoted set: decrement its columns.
		for q := rowPtr[best]; q < rowPtr[best+1]; q++ {
			kk := rowAdj[q]
			if !done[kk] {
				cnt[kk]--
				push(kk)
				if b := bucketOf(kk); b < minB {
					minB = b
				}
			}
		}
	}
	s.refLoRows, s.refUpRows = loRows, upRows
	s.refLoVals, s.refUpVals = loVals, upVals
	if repaired > 0 {
		// The slack of an unpivoted row r is ±e_r, and no lower eta pivots
		// on r, so elimination leaves it untransformed: its lower eta is the
		// bare pivot ±1 (the identity when +1) and it has no upper entries.
		for r := 0; r < m; r++ {
			if pivoted[r] {
				continue
			}
			slack := s.n + r
			s.basis[r] = slack
			s.stat[slack] = basic
			if s.slackSign[r] != 1 {
				s.lower.pushParts(r, s.slackSign[r], nil, nil)
			}
		}
		s.stats.Repairs += repaired
		for ; repaired > 0; repaired-- {
			s.emit(EventBasisRepair)
		}
	}
	s.computeBeta()
	s.stats.Refactorizations++
	s.emit(EventRefactorization)
	return true
}

// eliminate scatters basis column c into colBuf (all zero on entry) and
// applies the lower etas of the factorization in progress to it, returning
// the rows it touched in ascending order; the caller reads and re-zeroes
// exactly those rows. It performs the same floating-point operations, in
// the same order, as zeroing colBuf and running lower.ftranFwd over it, but
// visits only the etas the column reaches: an eta applies only when the
// entry of its pivot row is nonzero, and an entry becomes nonzero only in a
// row the scatter or an earlier eta wrote. refEtaOf maps each such row to
// its eta, and refHeap pops those etas in ascending file order — the order
// ftranFwd applies them in. Popping the smallest is safe because each eta's
// off-pivot rows were unpivoted when it was pushed, so any eta they lead
// to is newer than the one being applied.
func (s *sparse) eliminate(c int) []int32 {
	d, mark, etaOf := s.colBuf, s.refMark, s.refEtaOf
	touched, h := s.refTouched[:0], s.refHeap[:0]
	touch := func(r int32) {
		if !mark[r] {
			mark[r] = true
			touched = append(touched, r)
			if e := etaOf[r]; e >= 0 {
				h.push(e)
			}
		}
	}
	if c < s.n {
		for q := s.csc.colPtr[c]; q < s.csc.colPtr[c+1]; q++ {
			r := s.csc.rowIdx[q]
			touch(r)
			d[r] += s.csc.val[q]
		}
	} else {
		r := int32(s.colRow(c))
		touch(r)
		if c < s.n+s.m {
			d[r] += s.slackSign[r]
		} else {
			d[r] += s.artSign[r]
		}
	}
	lo := s.lower
	for len(h) > 0 {
		k := h.pop()
		p := lo.prow[k]
		t := d[p]
		if t == 0 {
			continue
		}
		d[p] = lo.pval[k] * t
		for q := lo.start[k]; q < lo.start[k+1]; q++ {
			r := lo.idx[q]
			touch(r)
			d[r] += lo.val[q] * t
		}
	}
	slices.Sort(touched)
	for _, r := range touched {
		mark[r] = false
	}
	s.refTouched, s.refHeap = touched, h
	return touched
}

// etaHeap is a binary min-heap of eta indices.
type etaHeap []int32

func (h *etaHeap) push(k int32) {
	a := append(*h, k)
	i := len(a) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if a[parent] <= k {
			break
		}
		a[i] = a[parent]
		i = parent
	}
	a[i] = k
	*h = a
}

func (h *etaHeap) pop() int32 {
	a := *h
	top, last := a[0], a[len(a)-1]
	a = a[:len(a)-1]
	if n := len(a); n > 0 {
		i := 0
		for {
			c := 2*i + 1
			if c >= n {
				break
			}
			if c+1 < n && a[c+1] < a[c] {
				c++
			}
			if last <= a[c] {
				break
			}
			a[i] = a[c]
			i = c
		}
		a[i] = last
	}
	*h = a
	return top
}

// computeBeta solves B·β = b − N·x_N for the basic values. Only structural
// nonbasic columns can sit at a nonzero bound (slacks and artificials have
// lower bound 0 and can never be nonbasic at +Inf), so the adjustment loop
// touches structural columns alone.
func (s *sparse) computeBeta() {
	r := s.rhsBuf
	for i, rw := range s.p.rows {
		r[i] = rw.rhs
	}
	for j := 0; j < s.n; j++ {
		if s.stat[j] == basic {
			continue
		}
		if xv := s.xval(j); xv != 0 {
			for q := s.csc.colPtr[j]; q < s.csc.colPtr[j+1]; q++ {
				r[s.csc.rowIdx[q]] -= s.csc.val[q] * xv
			}
		}
	}
	s.ftran(r)
	copy(s.beta, r)
}

// maybeRefactor refactorizes once the update file outgrows the cadence.
func (s *sparse) maybeRefactor() bool {
	if s.updates.count() < s.refactorEvery {
		return true
	}
	return s.refactor()
}

// enterable reports whether nonbasic column j may enter the basis: fixed
// columns (empty box) and retired artificials never re-enter.
func (s *sparse) enterable(j int) bool {
	if j >= s.n+s.m {
		return false // artificials never re-enter once nonbasic
	}
	lo, hi := s.bounds(j)
	return hi > lo
}

// chooseEntering prices the nonbasic columns by Dantzig's rule, or by
// Bland's first-improving rule once the phase has run long, and returns the
// entering column with its direction (+1 rising from lower, −1 falling from
// upper), or (−1, 0) at optimality.
func (s *sparse) chooseEntering(y []float64) (int, float64) {
	if s.bland {
		for j := 0; j < s.ncols; j++ {
			if s.stat[j] == basic || !s.enterable(j) {
				continue
			}
			d := s.reducedCost(j, y)
			if s.stat[j] == atLower && -d > tolCost {
				return j, 1
			}
			if s.stat[j] == atUpper && d > tolCost {
				return j, -1
			}
		}
		return -1, 0
	}
	// Dantzig pricing, inlined per column class for the hot path:
	// structural columns price against their CSC slice, slacks against a
	// single row of y; artificials never re-enter.
	bestJ, bestDir, bestScore := -1, 0.0, tolCost
	for j := 0; j < s.n; j++ {
		st := s.stat[j]
		if st == basic || s.chi[j] <= s.clo[j] {
			continue
		}
		c := s.ccost[j]
		for q := s.csc.colPtr[j]; q < s.csc.colPtr[j+1]; q++ {
			c -= y[s.csc.rowIdx[q]] * s.csc.val[q]
		}
		if st == atLower {
			if v := -c; v > bestScore {
				bestJ, bestDir, bestScore = j, 1, v
			}
		} else if c > bestScore {
			bestJ, bestDir, bestScore = j, -1, c
		}
	}
	for r := 0; r < s.m; r++ {
		j := s.n + r
		st := s.stat[j]
		if st == basic || s.chi[j] <= 0 {
			continue
		}
		c := -y[r] * s.slackSign[r] // slack cost is 0 in both phases
		if st == atLower {
			if v := -c; v > bestScore {
				bestJ, bestDir, bestScore = j, 1, v
			}
		} else if c > bestScore {
			bestJ, bestDir, bestScore = j, -1, c
		}
	}
	return bestJ, bestDir
}

// iterate runs primal simplex pivots until optimal/unbounded/limit.
func (s *sparse) iterate() Status {
	blandAfter := 20*(s.m+s.ncols) + 1000
	start := s.iters
	for {
		if s.iters-start > blandAfter {
			s.bland = true
		}
		if s.iters >= s.maxIters {
			return IterLimit
		}
		if !s.maybeRefactor() {
			return IterLimit // singular basis: numerical breakdown
		}
		y := s.btranCost()
		j, dir := s.chooseEntering(y)
		if j < 0 {
			return Optimal
		}
		d := s.ftranColumn(j)
		st := s.ratioTestAndPivot(j, dir, d)
		if st != 0 {
			return st
		}
		s.iters++
	}
}

// ratioTestAndPivot moves entering column j in direction dir along its
// FTRAN'd column d, performing a bound flip or a basis change. Returns a
// terminal status or 0 to continue.
func (s *sparse) ratioTestAndPivot(j int, dir float64, d []float64) Status {
	loJ, hiJ := s.bounds(j)
	t := hiJ - loJ // may be +Inf
	leaveRow := -1
	leaveToUpper := false
	bestPivot := 0.0
	for r := 0; r < s.m; r++ {
		a := d[r] * dir
		if a > tolPivot {
			// Basic variable decreases toward its lower bound.
			lob, _ := s.bounds(s.basis[r])
			lim := (s.beta[r] - lob) / a
			if lim < t-1e-12 || (lim < t+1e-12 && math.Abs(d[r]) > math.Abs(bestPivot)) {
				if lim < 0 {
					lim = 0
				}
				t = lim
				leaveRow = r
				leaveToUpper = false
				bestPivot = d[r]
			}
		} else if a < -tolPivot {
			// Basic variable increases toward its upper bound.
			_, ub := s.bounds(s.basis[r])
			if math.IsInf(ub, 1) {
				continue
			}
			lim := (ub - s.beta[r]) / (-a)
			if lim < t-1e-12 || (lim < t+1e-12 && math.Abs(d[r]) > math.Abs(bestPivot)) {
				if lim < 0 {
					lim = 0
				}
				t = lim
				leaveRow = r
				leaveToUpper = true
				bestPivot = d[r]
			}
		}
	}
	if math.IsInf(t, 1) {
		return Unbounded
	}
	if t != 0 {
		step := t * dir
		for r := 0; r < s.m; r++ {
			if d[r] != 0 {
				s.beta[r] -= d[r] * step
			}
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
	leaving := s.basis[leaveRow]
	if leaveToUpper {
		s.stat[leaving] = atUpper
	} else {
		s.stat[leaving] = atLower
	}
	var enterVal float64
	if dir > 0 {
		enterVal = loJ + t
	} else {
		enterVal = hiJ - t
	}
	s.basis[leaveRow] = j
	s.stat[j] = basic
	s.beta[leaveRow] = enterVal
	s.updates.push(d, leaveRow)
	return 0
}

// crashBasis installs the cold-start basis: structural columns at their
// lower bounds, each row served by its slack when the adjusted rhs allows,
// an artificial (with sign matching the residual) otherwise. Returns
// whether any artificial entered the basis (phase 1 needed).
func (s *sparse) crashBasis() bool {
	for j := 0; j < s.ncols; j++ {
		s.stat[j] = atLower
	}
	r0 := s.rhsBuf
	for i, rw := range s.p.rows {
		r0[i] = rw.rhs
	}
	for j := 0; j < s.n; j++ {
		if lo := s.p.lo[j]; lo != 0 {
			for q := s.csc.colPtr[j]; q < s.csc.colPtr[j+1]; q++ {
				r0[s.csc.rowIdx[q]] -= s.csc.val[q] * lo
			}
		}
	}
	hasArt := false
	for r, rw := range s.p.rows {
		slack, art := s.n+r, s.n+s.m+r
		useArt := false
		switch rw.rel {
		case LE:
			if r0[r] >= 0 {
				s.setBasic(r, slack, r0[r])
			} else {
				s.artSign[r] = -1
				useArt = true
			}
		case GE:
			if r0[r] <= 0 {
				s.setBasic(r, slack, -r0[r])
			} else {
				s.artSign[r] = 1
				useArt = true
			}
		case EQ:
			if r0[r] >= 0 {
				s.artSign[r] = 1
			} else {
				s.artSign[r] = -1
			}
			useArt = true
		}
		if useArt {
			s.setBasic(r, art, math.Abs(r0[r]))
			hasArt = true
		}
	}
	return hasArt
}

func (s *sparse) setBasic(r, col int, val float64) {
	s.basis[r] = col
	s.stat[col] = basic
	s.beta[r] = val
}

// runCold executes the classic two phases from the crash basis.
func (s *sparse) runCold() Status {
	needPhase1 := s.crashBasis()
	if !s.refactor() {
		return IterLimit
	}
	if needPhase1 {
		s.setPhase(true)
		st := s.iterate()
		if st != Optimal {
			if st == Unbounded {
				// The phase-1 objective is bounded below by 0; an
				// unbounded report means numerical trouble.
				return Infeasible
			}
			return st
		}
		obj1 := 0.0
		for r := 0; r < s.m; r++ {
			if s.basis[r] >= s.n+s.m {
				obj1 += s.beta[r]
			}
		}
		if obj1 > tolArt {
			return Infeasible
		}
		// Retire the artificials: phase 2 pins them to [0,0]; any still
		// basic sit degenerate at zero and the ratio test keeps them
		// there.
		s.setPhase(false)
		for j := s.n + s.m; j < s.ncols; j++ {
			if s.stat[j] == atUpper {
				s.stat[j] = atLower
			}
		}
	}
	s.bland = false
	return s.iterate()
}

// primalInfeasibility returns the largest bound violation among the basic
// values (0 when primal feasible).
func (s *sparse) primalInfeasibility() float64 {
	worst := 0.0
	for r := 0; r < s.m; r++ {
		lo, hi := s.bounds(s.basis[r])
		if v := lo - s.beta[r]; v > worst {
			worst = v
		}
		if v := s.beta[r] - hi; v > worst {
			worst = v
		}
	}
	return worst
}

// shiftMargin is the reduced cost, relative to 1+|c_j|, that shiftCosts
// leaves a shifted column with. Shifting to exactly zero makes every shifted
// column dual degenerate: the dual ratio test then takes zero steps among
// them and can cycle until the pivot limit.
const shiftMargin = 1e-6

// shiftCosts makes the current basis dual feasible: every enterable
// nonbasic column whose reduced cost d_j violates the phase-2 optimality
// sign condition has its working cost moved by d_j, less shiftMargin, so it
// prices at a small margin of the right sign. The true costs come back with
// setPhase(false). Returns the number of shifted columns.
func (s *sparse) shiftCosts() int {
	y := s.btranCost()
	shifted := 0
	for j := 0; j < s.ncols; j++ {
		if s.stat[j] == basic || !s.enterable(j) {
			continue
		}
		d := s.reducedCost(j, y)
		if (s.stat[j] == atLower && d < -tolFeas) || (s.stat[j] == atUpper && d > tolFeas) {
			margin := shiftMargin * (1 + math.Abs(s.ccost[j]))
			if s.stat[j] == atUpper {
				margin = -margin
			}
			s.ccost[j] -= d - margin
			shifted++
		}
	}
	return shifted
}

// installWarm loads a warm-start basis. Statuses are reinterpreted against
// the problem's current bounds (an atUpper column whose upper bound became
// +Inf degrades to atLower). The install adopts the carried factorization
// when it still describes the basis (adoptFactorization); otherwise it
// refactorizes with repair, so a carried basis that patches made singular
// (departing viewers zero a basic column's covering coefficients) loses its
// dependent columns to row slacks instead of being discarded. Returns false
// only when b does not have exactly one basic column per row.
func (s *sparse) installWarm(b *Basis) bool {
	k := 0
	for j, st := range b.ColStat {
		switch st {
		case BasisBasic:
			if k == s.m {
				return false
			}
			s.stat[j] = basic
			s.basis[k] = j
			k++
		case BasisAtUpper:
			if _, hi := s.bounds(j); math.IsInf(hi, 1) {
				s.stat[j] = atLower
			} else {
				s.stat[j] = atUpper
			}
		default:
			s.stat[j] = atLower
		}
	}
	if k != s.m {
		return false
	}
	if !s.opts.RefactorOnInstall && s.adoptFactorization(b.Fact) {
		return true
	}
	return s.factor(true)
}

// dualIterate runs dual simplex pivots from a dual-feasible basis until
// primal feasibility (→ Optimal), dual unboundedness (→ Infeasible), or a
// limit. The ratio test is the bounded-variable rule: candidates are the
// nonbasic columns whose admissible movement drives the leaving basic value
// toward its violated bound; the minimum |reduced cost / alpha| preserves
// dual feasibility.
func (s *sparse) dualIterate() Status {
	for {
		if s.iters >= s.maxIters {
			return IterLimit
		}
		if !s.maybeRefactor() {
			return IterLimit
		}
		// Leaving row: the most violated basic value.
		leave, worst, toUpper := -1, tolFeas, false
		for r := 0; r < s.m; r++ {
			lo, hi := s.bounds(s.basis[r])
			if v := lo - s.beta[r]; v > worst {
				leave, worst, toUpper = r, v, false
			}
			if v := s.beta[r] - hi; v > worst {
				leave, worst, toUpper = r, v, true
			}
		}
		if leave < 0 {
			return Optimal
		}
		// rho = row `leave` of B⁻¹; alpha_j = rho·a_j.
		rho := s.yBuf
		for i := range rho {
			rho[i] = 0
		}
		rho[leave] = 1
		s.btran(rho)
		row := s.pivotRow(rho)
		y := s.btranCostInto(s.rhsBuf)
		// Entering: minimize |d_j/alpha_j| over admissible columns.
		// needPos: when the basic value sits above its upper bound it must
		// decrease, so an at-lower candidate (which can only increase)
		// needs alpha > 0, an at-upper candidate alpha < 0 — and vice
		// versa below the lower bound.
		enter, bestRatio, bestAlpha := -1, math.Inf(1), 0.0
		for j := 0; j < s.ncols; j++ {
			if s.stat[j] == basic || !s.enterable(j) {
				continue
			}
			alpha := s.pivotEntry(j, row, rho)
			if math.Abs(alpha) <= tolPivot {
				continue
			}
			atLo := s.stat[j] != atUpper
			var ok bool
			if toUpper {
				ok = (atLo && alpha > 0) || (!atLo && alpha < 0)
			} else {
				ok = (atLo && alpha < 0) || (!atLo && alpha > 0)
			}
			if !ok {
				continue
			}
			d := s.reducedCost(j, y)
			ratio := math.Abs(d) / math.Abs(alpha)
			if ratio < bestRatio-1e-12 || (ratio < bestRatio+1e-12 && math.Abs(alpha) > math.Abs(bestAlpha)) {
				enter, bestRatio, bestAlpha = j, ratio, alpha
			}
		}
		if enter < 0 {
			return Infeasible // dual unbounded ⇒ primal infeasible
		}
		d := s.ftranColumn(enter)
		if math.Abs(d[leave]) <= tolPivot {
			// Drifted pivot. If the factorization is already fresh the
			// disagreement is not drift — bail. Otherwise refactorize
			// and restart the iteration: refactorization permutes the
			// basis-to-row assignment, so both `leave` and its
			// violated-bound direction must be re-derived from the
			// rebuilt basis rather than reused.
			if s.updates.count() == 0 || !s.refactor() {
				return IterLimit
			}
			continue
		}
		lo, hi := s.bounds(s.basis[leave])
		bound := lo
		if toUpper {
			bound = hi
		}
		step := (s.beta[leave] - bound) / d[leave]
		for r := 0; r < s.m; r++ {
			if d[r] != 0 {
				s.beta[r] -= d[r] * step
			}
		}
		leaving := s.basis[leave]
		if toUpper {
			s.stat[leaving] = atUpper
		} else {
			s.stat[leaving] = atLower
		}
		enterVal := s.xval(enter) + step
		s.basis[leave] = enter
		s.stat[enter] = basic
		s.beta[leave] = enterVal
		s.updates.push(d, leave)
		s.iters++
	}
}

// btranCostInto computes y = c_B·B⁻¹ in the caller's buffer (so the shared
// yBuf can hold rho concurrently).
func (s *sparse) btranCostInto(y []float64) []float64 {
	for r := 0; r < s.m; r++ {
		y[r] = s.cost(s.basis[r])
	}
	s.btran(y)
	return y
}

// pivotRow returns α_j = ρ·a_j for every structural column j, in the shared
// alphaBuf. It walks the Problem's row-wise coefficients of the rows where
// ρ is nonzero, in ascending row order, instead of taking one dot product
// per column: a pivot row from a sparse ρ touches only those rows. Each α_j
// still adds its terms in the order of its CSC column (ascending rows, then
// coefficient order within a row), and a term skipped for ρ_i = 0 only ever
// adds ±0, so every entry equals the column-wise dot product bit for bit.
// The rows and the CSC cache hold the same values: every SetRowCoef writes
// both, or drops the cache when its entry is ambiguous so that it is rebuilt
// from the rows (CheckCSCSync tests this).
func (s *sparse) pivotRow(rho []float64) []float64 {
	alpha := s.alphaBuf
	clear(alpha)
	for i, ri := range rho {
		if ri == 0 {
			continue
		}
		for _, c := range s.p.rows[i].coefs {
			alpha[c.Var] += ri * c.Val
		}
	}
	return alpha
}

// pivotEntry returns the pivot-row entry α_j of structural or slack column
// j, given pivotRow's structural entries and ρ itself (a slack column ±e_r
// reads ρ_r directly).
func (s *sparse) pivotEntry(j int, row, rho []float64) float64 {
	if j < s.n {
		return row[j]
	}
	r := j - s.n
	return rho[r] * s.slackSign[r]
}

// runWarm attempts a warm-started solve from b, installed (and repaired if
// singular) by installWarm. A primal feasible basis runs primal phase 2. Any
// other runs the dual simplex to primal feasibility: directly when the basis
// is dual feasible (bounds or rhs changed), or, when it is not (costs moved
// too), under costs shifted to make it so (shiftCosts), restoring the true
// costs before primal phase 2 finishes. The bool reports whether the warm
// path produced a trustworthy terminal status; on false the caller must fall
// back to a cold solve.
func (s *sparse) runWarm(b *Basis) (Status, bool) {
	if !s.installWarm(b) {
		return 0, false
	}
	if s.primalInfeasibility() <= tolFeas {
		return s.iterate(), true
	}
	shifted := s.shiftCosts()
	st := s.dualIterate()
	if st == Infeasible {
		// Dual unboundedness proves primal infeasibility whatever the costs,
		// but the caller re-verifies with a cold phase 1 before trusting it
		// (a wrong Infeasible would silently mis-prune branch-and-bound).
		return Infeasible, true
	}
	if st != Optimal {
		return 0, false
	}
	if shifted > 0 {
		s.setPhase(false)
	}
	// Without a shift dual feasibility was maintained throughout, so this
	// primal cleanup normally confirms optimality in zero pivots; after one
	// it prices the true costs from a primal feasible basis.
	return s.iterate(), true
}

// extract returns the structural variable values, clamping sub-tolerance
// bound violations introduced by floating-point drift.
func (s *sparse) extract() []float64 {
	x := make([]float64, s.n)
	for j := 0; j < s.n; j++ {
		if s.stat[j] == atUpper {
			x[j] = s.p.hi[j]
		} else {
			x[j] = s.p.lo[j]
		}
	}
	for r := 0; r < s.m; r++ {
		if b := s.basis[r]; b < s.n {
			v := s.beta[r]
			if lo := s.p.lo[b]; v < lo && v > lo-tolFeas {
				v = lo
			}
			if hi := s.p.hi[b]; v > hi && v < hi+tolFeas {
				v = hi
			}
			x[b] = v
		}
	}
	return x
}

// snapshotBasis captures the current basis for warm starts.
func (s *sparse) snapshotBasis() *Basis {
	b := &Basis{
		NumVars: s.n,
		NumRows: s.m,
		ColStat: make([]int8, s.ncols),
	}
	for j := 0; j < s.ncols; j++ {
		switch s.stat[j] {
		case basic:
			b.ColStat[j] = BasisBasic
		case atUpper:
			b.ColStat[j] = BasisAtUpper
		default:
			b.ColStat[j] = BasisAtLower
		}
	}
	b.Fact = s.snapshotFactorization()
	return b
}

// duals returns the row shadow prices of the optimum s sits at, against the
// rows of s's Problem as set. At an optimum the solver is in phase 2, so
// c_B·B⁻¹ prices the true objective against the stored rows; row r is
// stored divided by its scale, so its own shadow price is y_r / scale_r.
func (s *sparse) duals() []float64 {
	y := append([]float64(nil), s.btranCost()[:s.m]...)
	for r := range y {
		y[r] /= s.p.rows[r].scale
	}
	return y
}

// solveSparse runs the sparse solver: a warm attempt when a shape-compatible
// basis is offered (runWarm keeps primal feasible, dual feasible,
// neither-feasible and singular bases warm), then at most one cold attempt.
// Every optimum is audited against the rows as set before it is returned. A
// warm attempt that does not end in its own audited optimum counts one
// SolveStats.WarmFallbacks and re-solves cold. A cold optimum that fails the
// audit is an error with a nil Solution; a cold Infeasible, Unbounded or
// IterLimit is returned as a Solution with that status.
func (p *Problem) solveSparse(opts Options) (*Solution, error) {
	totalIters := 0
	var totalStats SolveStats
	// audit returns the point of s's optimum, or the feasibility audit's
	// verdict against it.
	audit := func(s *sparse) ([]float64, error) {
		x := s.extract()
		if err := p.CheckFeasible(x, 1e-6); err != nil {
			return nil, err
		}
		return x, nil
	}
	// finish builds the Solution of s's terminal status st; x is the point
	// already extracted for the audit, or nil.
	finish := func(s *sparse, st Status, x []float64) *Solution {
		sol := &Solution{Status: st, Iterations: totalIters, Stats: totalStats}
		if st == Optimal || st == IterLimit {
			if x == nil {
				x = s.extract()
			}
			sol.X = x
			sol.Objective = p.objectiveOf(x)
		}
		if st == Optimal {
			sol.Basis = s.snapshotBasis()
			sol.Duals = s.duals()
		}
		s.release(st == Optimal)
		return sol
	}

	if opts.WarmStart.compatible(p) {
		s := newSparse(p, opts)
		s.stats.WarmStarts++
		st, ok := s.runWarm(opts.WarmStart)
		var x []float64
		if ok && st == Optimal {
			x, _ = audit(s)
		}
		if x == nil {
			// An unusable basis, a non-optimal terminal status, or an
			// optimum that fails the audit re-solves cold. In particular a
			// warm Infeasible is only trusted once phase 1 confirms it.
			s.stats.WarmFallbacks++
			s.emit(EventWarmFallback)
		}
		totalIters += s.iters
		totalStats.Add(s.stats)
		if x != nil {
			return finish(s, st, x), nil
		}
		s.release(false)
	}

	s := newSparse(p, opts)
	st := s.runCold()
	totalIters += s.iters
	totalStats.Add(s.stats)
	if st != Optimal {
		return finish(s, st, nil), nil
	}
	x, err := audit(s)
	if err != nil {
		s.release(false)
		return nil, fmt.Errorf("lp: cold optimum after %d pivots failed the feasibility audit: %w", totalIters, err)
	}
	return finish(s, st, x), nil
}
