package lp

import "math"

// The persistent basis factorization. A solve's final eta file used to die
// with the solver's working state: every warm start paid a full
// refactorization at install even when the basis — and the matrix — had not
// changed since the factorization was built. Factorization splits that state
// out into a handle that Solution.Basis carries across solves, so the
// re-optimization loop (lpmodel.Patcher keeping one Problem alive across
// epochs) can resume pivoting from the exact elimination form it left off
// with.
//
// The adoption contract with the in-place patch API: the Problem stamps
// every structural column a SetRowCoef actually changed with a monotone
// patch version. A carried factorization is adopted only by the Problem
// that built it (or the one RestoreBasis binds a persisted handle to); any
// other Problem refactorizes at install, even one with an identical matrix.
// Adoption installs the carried lower/upper/update files verbatim (a
// Forrest–Tomlin-style product form: later pivots keep appending update
// etas to the carried file instead of starting from a fresh
// refactorization). A patched nonbasic column leaves B untouched. A column
// that is basic in the file and was patched since the snapshot changed B
// itself: B′ = B + (a′−a)e_rᵀ at its basis row r, so B′⁻¹ = E⁻¹B⁻¹ with
// E = I + (B⁻¹a′ − e_r)e_rᵀ — exactly the update a pivot bringing a′ into
// row r makes. The install FTRANs a′ through the carried factors and
// appends that eta (a column replacement). It refactorizes only when a
// replacement pivot falls below tolReplace or when the carried update file
// plus the replacements would reach the refactorization cadence.

// Factorization is the reusable eta-file basis state of a finished solve:
// the elimination-form factors (lower/upper from the last refactorization,
// the product-form updates appended since), the basis-to-row assignment they
// were built for (refactorization permutes it, so column statuses alone
// cannot reconstruct it), and the identity of the Problem and patch version
// they factorize. Snapshots reference the finished solver's arenas — a
// warm-starting solver copies them on adoption, so one handle can seed any
// number of re-solves.
type Factorization struct {
	m       int
	basis   []int     // basis[r] = column basic in row r at snapshot time
	artSign []float64 // artificial column signs the eta file was built under
	lower   *etaFile
	upper   *etaFile
	updates *etaFile

	prob *Problem // identity: adoption requires the very same Problem
	ver  uint64   // prob.patchVer at snapshot time
}

// UpdateEtas returns the number of product-form update etas the handle
// carries beyond its last refactorization (diagnostic: the drift-bound tests
// assert that the refactorization cadence bounds it).
func (f *Factorization) UpdateEtas() int {
	if f == nil {
		return 0
	}
	return f.updates.count()
}

// snapshotFactorization captures the solver's live factorization state. The
// eta files are referenced, not copied: the solver is finished and its state
// is dead, while adopters copy before mutating.
func (s *sparse) snapshotFactorization() *Factorization {
	return &Factorization{
		m:       s.m,
		basis:   append([]int(nil), s.basis...),
		artSign: append([]float64(nil), s.artSign...),
		lower:   s.lower,
		upper:   s.upper,
		updates: s.updates,
		prob:    s.p,
		ver:     s.p.patchVer,
	}
}

// tolReplace is the smallest |pivot| a column replacement accepts at
// install. Below it the patch nearly made B singular at that row, and the
// eta would amplify the carried file's rounding error, so the install
// refactorizes instead. It is stricter than tolPivot because nothing chose
// this pivot: the patch did.
const tolReplace = 1e-7

// adoptFactorization installs a carried factorization instead of
// refactorizing, when it is valid for the current problem state: a handle
// built by this very Problem, a basic set agreeing with the statuses
// installWarm just loaded, and eta files that describe the current basis
// matrix once every structural column that is basic in the handle and was
// patched since the snapshot is replaced in the file (see replaceColumn).
// On success — the only case counted as an FT update — the basic values are
// recomputed against the current rhs and bounds. Returns false when the
// caller must refactorize instead: the handle does not fit, a replacement
// pivot is below tolReplace, or the carried update file plus the
// replacements would reach the cadence (the Forrest–Tomlin file cannot be
// allowed to grow without bound across epochs: the etaDrop truncation per
// eta would otherwise accumulate past the feasibility audit's tolerance).
func (s *sparse) adoptFactorization(f *Factorization) bool {
	if f == nil || f.prob != s.p || f.m != s.m || len(f.basis) != s.m || len(f.artSign) != s.m {
		return false
	}
	replace := 0
	for _, c := range f.basis {
		if s.stat[c] != basic {
			return false
		}
		if s.p.patchedSince(c, f.ver) {
			replace++
		}
	}
	copy(s.basis, f.basis)
	copy(s.artSign, f.artSign)
	s.lower.copyFrom(f.lower)
	s.upper.copyFrom(f.upper)
	s.updates.copyFrom(f.updates)
	if s.updates.count()+replace >= s.refactorEvery {
		return false
	}
	for r, left := 0, replace; left > 0; r++ {
		if !s.p.patchedSince(s.basis[r], f.ver) {
			continue
		}
		if !s.replaceColumn(r) {
			return false
		}
		left--
	}
	s.stats.FTUpdates++
	s.stats.Replacements += replace
	s.emit(EventFTAdoption)
	for ; replace > 0; replace-- {
		s.emit(EventColumnReplacement)
	}
	s.computeBeta()
	return true
}

// patchedSince reports whether column c is a structural column whose
// coefficients changed after patch version ver.
func (p *Problem) patchedSince(c int, ver uint64) bool {
	return c < p.n && p.colVer != nil && p.colVer[c] > ver
}

// replaceColumn brings the factorization up to date with the current values
// of the column basic in row r, which a patch changed since the file was
// built: it FTRANs the new column through the current factors and appends
// the product-form eta of pivoting it into row r. Returns false, appending
// nothing, when that pivot is below tolReplace.
func (s *sparse) replaceColumn(r int) bool {
	d := s.ftranColumn(s.basis[r])
	if math.Abs(d[r]) < tolReplace {
		return false
	}
	s.updates.push(d, r)
	return true
}
