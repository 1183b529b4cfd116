package lp

// Locks the two sparse kernels of the simplex to dense references that
// define their results: the sparse-accumulator elimination (factor) to the
// dense-scan elimination it replaced, and the row-wise pivot row (pivotRow)
// to one dot product per column. Both must agree bit for bit, so that no
// pivot path anywhere above this package moves.

import (
	"math"
	"slices"
	"testing"

	"repro/internal/stats"
)

// factorDense is the reference elimination: factor as it was before the
// sparse accumulator, scattering every basis column into a cleared m-vector,
// applying every lower eta to it with ftranFwd and scanning all m rows to
// split it. factor must reproduce its files, basis rows and repairs exactly.
func (s *sparse) factorDense(repair bool) bool {
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
	for r := range pivoted {
		done[r] = false
		pivoted[r] = false
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
		d := s.colBuf
		for i := range d {
			d[i] = 0
		}
		s.scatterColumn(c, d)
		s.lower.ftranFwd(d)
		// Split the transformed column: unpivoted rows feed the lower
		// (elimination) eta, pivoted rows the upper (back-substitution)
		// eta. The pivot is the largest unpivoted entry.
		best, bv := -1, 0.0
		loRows, loVals = loRows[:0], loVals[:0]
		upRows, upVals = upRows[:0], upVals[:0]
		for r := 0; r < m; r++ {
			v := d[r]
			if v <= etaDrop && v >= -etaDrop {
				continue
			}
			if pivoted[r] {
				upRows = append(upRows, int32(r))
				upVals = append(upVals, v)
				continue
			}
			loRows = append(loRows, int32(r))
			loVals = append(loVals, v)
			if a := math.Abs(v); a > bv {
				best, bv = r, a
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
		piv := d[best]
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

// randomDuplicated draws a short LP whose rows list the same variable up to
// three times, so a basis column can hold more entries than there are rows:
// the case that once overflowed factor's bucket queue.
func randomDuplicated(seed uint64) *Problem {
	rng := stats.NewRNG(seed)
	nVars := 3 + rng.Intn(6)
	p := NewProblem(nVars)
	for j := 0; j < nVars; j++ {
		p.SetObjectiveCoef(j, rng.Range(0.5, 2))
		p.SetBounds(j, 0, 1)
	}
	nRows := 2 + rng.Intn(4)
	for r := 0; r < nRows; r++ {
		var coefs []Coef
		for j := 0; j < nVars; j++ {
			if rng.Bernoulli(0.6) {
				for rep := 1 + rng.Intn(3); rep > 0; rep-- {
					coefs = append(coefs, Coef{j, rng.Range(-1, 1)})
				}
			}
		}
		if len(coefs) == 0 {
			coefs = append(coefs, Coef{0, 1}, Coef{0, 1})
		}
		rel := []Rel{LE, GE, EQ}[rng.Intn(3)]
		p.AddConstraint(rel, rng.Range(0.5, 2), coefs...)
	}
	return p
}

// factorFixture draws one of the three random LP families.
func factorFixture(trial int) *Problem {
	seed := uint64(40000 + trial)
	switch trial % 3 {
	case 0:
		return randomMixed(seed)
	case 1:
		return randomCovering(seed)
	}
	return randomDuplicated(seed)
}

// basisDraw is a random basis for a Problem: the column basic in each row,
// the artificial signs, and the nonbasic structurals placed at their upper
// bounds.
type basisDraw struct {
	cols    []int
	artSign []float64
	upper   []bool
}

// drawBasis picks m distinct columns, structural, slack and artificial in
// proportions drawn per basis. Random structural columns are often
// dependent, so many draws are singular.
func drawBasis(p *Problem, rng *stats.RNG) basisDraw {
	n, m := p.NumVars(), p.NumRows()
	pStruct := []float64{0.3, 0.6, 0.8, 0.95}[rng.Intn(4)]
	pArt := []float64{0, 0, 0.2}[rng.Intn(3)]
	if pStruct+pArt > 0.95 {
		pArt = 0.95 - pStruct
	}
	b := basisDraw{artSign: make([]float64, m), upper: make([]bool, n)}
	used := make([]bool, n+2*m)
	for len(b.cols) < m {
		var c int
		switch x := rng.Float64(); {
		case x < pStruct:
			c = rng.Intn(n)
		case x < pStruct+pArt:
			c = n + m + rng.Intn(m)
		default:
			c = n + rng.Intn(m)
		}
		if !used[c] {
			used[c] = true
			b.cols = append(b.cols, c)
		}
	}
	for r := range b.artSign {
		b.artSign[r] = 1
		if rng.Bernoulli(0.5) {
			b.artSign[r] = -1
		}
	}
	for j := range b.upper {
		_, hi := p.Bounds(j)
		b.upper[j] = !used[j] && !math.IsInf(hi, 1) && rng.Bernoulli(0.3)
	}
	return b
}

// install loads the draw into a fresh solver over p.
func (b basisDraw) install(p *Problem) *sparse {
	s := newSparse(p, Options{})
	copy(s.basis, b.cols)
	copy(s.artSign, b.artSign)
	for j := range s.stat {
		s.stat[j] = atLower
	}
	for j, up := range b.upper {
		if up {
			s.stat[j] = atUpper
		}
	}
	for _, c := range b.cols {
		s.stat[c] = basic
	}
	return s
}

// diffEtaFile names the first field in which two eta files differ, with
// values compared bit for bit, or returns "" when they are identical.
func diffEtaFile(a, b *etaFile) string {
	switch {
	case !slices.Equal(a.prow, b.prow):
		return "prow"
	case !equalBits(a.pval, b.pval):
		return "pval"
	case !slices.Equal(a.start, b.start):
		return "start"
	case !slices.Equal(a.idx, b.idx):
		return "idx"
	case !equalBits(a.val, b.val):
		return "val"
	}
	return ""
}

func equalBits(a, b []float64) bool {
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

// TestFactorMatchesDenseReference factorizes random bases of three LP
// families, with and without repair, through both factor and factorDense,
// and requires identical results: every field of the lower, upper and
// update files, the basis rows, the column statuses, the basic values, the
// return value and the repair count. The bases mix structural, slack and
// artificial columns (both artificial signs), include singular ones, and
// include columns with duplicate (row, var) entries, some of them longer
// than the basis has rows.
func TestFactorMatchesDenseReference(t *testing.T) {
	var bases, singular, repaired, withArt, withDup, overflow int
	for trial := 0; trial < 300; trial++ {
		p := factorFixture(trial)
		rng := stats.NewRNG(uint64(trial) ^ 0xfac7)
		if trial%5 == 4 {
			// Departing viewers zero whole columns; a zeroed basic column
			// makes the basis singular.
			zeroColumn(p, rng.Intn(p.NumVars()))
		}
		draw := drawBasis(p, rng)
		n, m := p.NumVars(), p.NumRows()
		p.Precompute()
		csc := p.csc
		for _, c := range draw.cols {
			switch {
			case c >= n+m:
				withArt++
			case c < n && csc.colNNZ(c) > m:
				overflow++
				withDup++
			case c < n:
				for q := csc.colPtr[c] + 1; q < csc.colPtr[c+1]; q++ {
					if csc.rowIdx[q] == csc.rowIdx[q-1] {
						withDup++
						break
					}
				}
			}
		}
		for _, repair := range []bool{false, true} {
			got, want := draw.install(p), draw.install(p)
			okGot, okWant := got.factor(repair), want.factorDense(repair)
			bases++
			if okGot != okWant {
				t.Fatalf("trial %d repair=%v: factor returned %v, reference %v", trial, repair, okGot, okWant)
			}
			if !okWant && !repair {
				singular++
			}
			for name, pair := range map[string][2]*etaFile{
				"lower":   {got.lower, want.lower},
				"upper":   {got.upper, want.upper},
				"updates": {got.updates, want.updates},
			} {
				if f := diffEtaFile(pair[0], pair[1]); f != "" {
					t.Fatalf("trial %d repair=%v: %s file differs in %s", trial, repair, name, f)
				}
			}
			if !slices.Equal(got.basis, want.basis) || !slices.Equal(got.stat, want.stat) {
				t.Fatalf("trial %d repair=%v: basis rows or statuses differ", trial, repair)
			}
			if !equalBits(got.beta, want.beta) {
				t.Fatalf("trial %d repair=%v: basic values differ", trial, repair)
			}
			if got.stats != want.stats {
				t.Fatalf("trial %d repair=%v: stats %+v, reference %+v", trial, repair, got.stats, want.stats)
			}
			repaired += got.stats.Repairs
		}
	}
	t.Logf("%d factorizations: %d singular without repair, %d columns repaired; basis columns: %d artificial, %d with duplicate entries (%d longer than m)",
		bases, singular, repaired, withArt, withDup, overflow)
	if singular == 0 || repaired == 0 || withArt == 0 || withDup == 0 || overflow == 0 {
		t.Fatal("the random bases missed a case the comparison must cover")
	}
}

// rowDot is the per-column pivot-row entry pivotRow replaced: ρ·a_j for
// structural column j, summed down its CSC column.
func (s *sparse) rowDot(j int, rho []float64) float64 {
	v := 0.0
	for q := s.csc.colPtr[j]; q < s.csc.colPtr[j+1]; q++ {
		v += rho[s.csc.rowIdx[q]] * s.csc.val[q]
	}
	return v
}

// TestPivotRowMatchesColumnDots: the row-wise pivot row must equal rowDot
// bit for bit on every structural column, and pivotEntry must read slack
// entries as ρ_r times the slack sign, for ρ with 1% to 100% nonzeros and
// on matrices holding patched-to-zero and duplicate coefficients.
func TestPivotRowMatchesColumnDots(t *testing.T) {
	for trial := 0; trial < 240; trial++ {
		p := factorFixture(trial)
		rng := stats.NewRNG(uint64(trial) ^ 0x9e1)
		if trial%4 == 0 {
			zeroColumn(p, rng.Intn(p.NumVars()))
		}
		s := newSparse(p, Options{})
		density := []float64{0.01, 0.1, 0.5, 1}[(trial/3)%4]
		rho := make([]float64, s.m)
		for i := range rho {
			if rng.Float64() < density {
				rho[i] = rng.Range(-2, 2)
			}
		}
		rho[rng.Intn(s.m)] = rng.Range(-2, 2)
		row := s.pivotRow(rho)
		for j := 0; j < s.n; j++ {
			if got, want := row[j], s.rowDot(j, rho); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("trial %d column %d: pivot row %v, dot product %v", trial, j, got, want)
			}
			if got := s.pivotEntry(j, row, rho); got != row[j] {
				t.Fatalf("trial %d column %d: pivotEntry %v, pivot row %v", trial, j, got, row[j])
			}
		}
		for r := 0; r < s.m; r++ {
			if got, want := s.pivotEntry(s.n+r, row, rho), rho[r]*s.slackSign[r]; got != want {
				t.Fatalf("trial %d slack %d: %v, want %v", trial, r, got, want)
			}
		}
	}
}
