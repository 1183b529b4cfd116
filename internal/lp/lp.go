// Package lp solves linear programs
//
//	minimize    c·x
//	subject to  row_i · x  {≤,=,≥}  b_i
//	            lo_j ≤ x_j ≤ hi_j
//
// with a sparse, column-oriented, bounded-variable revised simplex. The
// overlay-design LPs this repository builds are overwhelmingly sparse —
// each x_{ij} variable touches a handful of rows — so the solver stores the
// constraint matrix once in compressed-sparse-column (CSC) form and never
// materializes a dense tableau.
//
// # Design
//
//   - Storage: structural columns live in a CSC matrix cached on the
//     Problem (rebuilt only when constraints are added, so branch-and-bound
//     re-solves after bound changes reuse it). Every row additionally gets
//     one logical slack column and one artificial column, both singletons
//     (±e_r), which are represented implicitly.
//   - Scaling: the Problem stores each row, coefficients and rhs, divided
//     by s_r = 2^⌊log2 max_j |a_rj|⌋ (1 for an empty or all-zero row), so
//     the largest stored entry of every row lies in [1, 2). The aggregate
//     LPs mix unit loads of O(10^3) with fanout coefficients of O(10). The
//     factor is a power of two, so scaling and unscaling are exact, and it
//     is a pure function of the row's current values: a
//     SetRowCoef marks its row, and Precompute (or the next solve) derives
//     the marked rows' factors anew, re-storing a row whose factor moved
//     and stamping its columns as patched. A patched Problem therefore
//     stores exactly what a fresh one with the same values does. Values
//     are unscaled in one place each: RowCoef, RowCoefs and RHS return what
//     was set, CheckFeasible judges the rows as set, and Solution.Duals
//     price them (y_r = y′_r / s_r). x and the objective do not change
//     under row scaling. The tests' dense reference solver reads the rows
//     as set.
//   - Basis: the basis inverse is kept in elimination form: the lower and
//     upper factors of the last refactorization, each a file of eta
//     matrices, followed by one product-form update eta per pivot since.
//     FTRAN applies them to a column, BTRAN to a row vector. The
//     refactorization is a sparse Gaussian elimination over the current
//     basis columns (greedy triangular column order, partial pivoting
//     within each column), built with a sparse accumulator so that each
//     column costs time in proportion to the entries it touches. It runs
//     every 16 + 2·√rows pivots — the cadence bounds both update-file
//     growth and accumulated floating-point drift.
//   - Pricing: Dantzig's rule (enter the column whose reduced cost most
//     violates optimality), with a Bland fallback for anti-cycling once a
//     phase runs long. The pivot row that the dual ratio test reads is built from
//     the row-wise coefficients of the rows where the BTRAN'd unit vector is
//     nonzero.
//   - Phases: a cold solve runs the classic two phases — artificials are
//     priced out first, then the true objective — while a warm solve skips
//     phase 1 entirely: primal phase 2 when the supplied basis is already
//     primal feasible (costs changed, e.g. churn re-optimization), and the
//     dual simplex otherwise — directly when the basis is dual feasible
//     (bounds changed, e.g. branch-and-bound children), under temporarily
//     shifted costs when it is not (costs and rhs changed together),
//     followed by primal phase 2 on the true costs.
//
// # Warm starts
//
// Solution.Basis snapshots the final basis as per-column statuses plus a
// persistent Factorization handle; passing it back through Options.WarmStart
// re-solves a same-shaped problem (identical variable and row counts — costs
// and bounds may differ) from that basis instead of from scratch. When the
// re-solve targets the very same Problem, the install resumes from the
// carried eta file rather than refactorizing: basic columns patched since
// the snapshot are replaced in the file by one product-form eta each. The
// carried factorization is adopted only by the Problem that built it (or
// the one RestoreBasis binds it to); any other Problem refactorizes at
// install. A basis that patches made singular is repaired at install: each
// dependent column leaves the basis and the slack of its unpivoted row
// replaces it. A basis of a related problem whose columns and rows were
// dropped, added or reordered carries over through Basis.Remap and its
// index maps. Bases of
// the wrong shape, and warm solves that fail or whose optimum fails the
// feasibility audit, degrade to a cold solve (counted in
// SolveStats.WarmFallbacks), so warm starting is always safe to attempt.
//
// # One cold attempt
//
// The cold solve runs once. An optimum is audited against the rows as set
// (CheckFeasible) before it is returned; one that fails the audit is an
// error, never an Optimal Solution. Infeasible, Unbounded and IterLimit are
// returned as Solutions with that status.
//
// The original dense two-phase tableau solver lives on in dense_test.go as
// the tests' golden reference: they cross-check sparse optima against it.
package lp

import (
	"errors"
	"fmt"
	"math"
)

// Rel is a constraint relation.
type Rel int

// Constraint relations.
const (
	LE Rel = iota // row·x ≤ rhs
	GE            // row·x ≥ rhs
	EQ            // row·x = rhs
)

func (r Rel) String() string {
	switch r {
	case LE:
		return "<="
	case GE:
		return ">="
	case EQ:
		return "=="
	}
	return "?"
}

// Coef is one nonzero coefficient of a constraint row.
type Coef struct {
	Var int
	Val float64
}

// row is one constraint as the solver stores it: coefficients and rhs
// divided by scale, a power of two (see rowScale). marked records a
// coefficient patch since the last Precompute, after which scale may no
// longer be the one the row's values call for.
type row struct {
	coefs  []Coef
	rel    Rel
	rhs    float64
	scale  float64
	marked bool
}

// rowScale returns the factor a row whose coefficients are coefs·s should be
// stored divided by: 2^⌊log2 max_j |a_j|⌋, so that the stored row's largest
// entry lies in [1, 2), or 1 when the row is empty, all zero or not finite.
// s must be a power of two, as every stored scale is; the result then is one
// too, and depends only on the row's values, not on s.
func rowScale(coefs []Coef, s float64) float64 {
	big := 0.0
	for _, c := range coefs {
		if a := math.Abs(c.Val); a > big {
			big = a
		}
	}
	if big == 0 || math.IsInf(big, 1) {
		return 1
	}
	_, e := math.Frexp(big) // big = f·2^e with f in [1/2, 1)
	return math.Ldexp(s, e-1)
}

// Problem accumulates an LP. The zero Problem is not usable; create one
// with NewProblem.
type Problem struct {
	n    int // number of structural variables
	obj  []float64
	lo   []float64
	hi   []float64
	rows []row

	// csc caches the structural columns in compressed-sparse-column form.
	// It depends only on the rows (not bounds or costs), so bound-mutating
	// re-solves — branch-and-bound dives — rebuild nothing. AddConstraint
	// invalidates it.
	csc *cscMatrix

	// patchVer counts the matrix-coefficient patches applied so far, and
	// colVer (allocated lazily on the first patch) stamps each structural
	// column with the patchVer of its latest change. A Factorization carried
	// across solves records the patchVer it was built under; comparing
	// against colVer at warm-start install tells exactly which columns
	// changed underneath it. Objective, rhs, and bound edits do not bump the
	// version: they leave the basis matrix B untouched.
	patchVer uint64
	colVer   []uint64

	// marked lists the rows SetRowCoef patched since the last Precompute,
	// whose scale Precompute re-derives.
	marked []int
}

// NewProblem returns a problem with numVars structural variables, objective
// zero, and default bounds [0, +Inf).
func NewProblem(numVars int) *Problem {
	p := &Problem{
		n:   numVars,
		obj: make([]float64, numVars),
		lo:  make([]float64, numVars),
		hi:  make([]float64, numVars),
	}
	for j := range p.hi {
		p.hi[j] = math.Inf(1)
	}
	return p
}

// NumVars returns the number of structural variables.
func (p *Problem) NumVars() int { return p.n }

// NumRows returns the number of constraints added so far.
func (p *Problem) NumRows() int { return len(p.rows) }

// SetObjectiveCoef sets the objective coefficient of variable j.
func (p *Problem) SetObjectiveCoef(j int, v float64) {
	p.obj[j] = v
}

// AddObjectiveCoef adds v to the objective coefficient of variable j.
func (p *Problem) AddObjectiveCoef(j int, v float64) {
	p.obj[j] += v
}

// SetBounds sets lo ≤ x_j ≤ hi. Lower bounds must be finite (the overlay
// LPs never need -Inf lower bounds; supporting them would complicate the
// nonbasic-at-bound bookkeeping for no benefit).
func (p *Problem) SetBounds(j int, lo, hi float64) {
	p.lo[j] = lo
	p.hi[j] = hi
}

// Bounds returns the current bounds of variable j. Branch-and-bound uses it
// to save and restore bounds around branching decisions.
func (p *Problem) Bounds(j int) (lo, hi float64) {
	return p.lo[j], p.hi[j]
}

// AddConstraint appends the constraint (Σ coefs) rel rhs and returns its row
// index. Coefficients referring to the same variable are summed.
func (p *Problem) AddConstraint(rel Rel, rhs float64, coefs ...Coef) int {
	cp := make([]Coef, len(coefs))
	copy(cp, coefs)
	s := rowScale(cp, 1)
	for i := range cp {
		cp[i].Val /= s
	}
	p.rows = append(p.rows, row{coefs: cp, rel: rel, rhs: rhs / s, scale: s})
	p.csc = nil
	return len(p.rows) - 1
}

// Precompute brings the stored matrix up to date now rather than inside the
// next solve: it re-derives the scale of every row SetRowCoef patched since
// the last call (see the package comment), and builds the cached CSC form of
// the constraint matrix. A precomputed Problem is safe to solve from
// multiple goroutines concurrently — SolveOpts then only reads the rows,
// bounds, costs, and cache — which is how per-shard re-solves and stress
// tests share one Problem. Adding a constraint invalidates the cache and a
// coefficient patch marks its row, so a Problem shared by concurrent solves
// must be precomputed after its last AddConstraint and its last patch.
// In-place value patches (SetRowCoef, SetRHS) keep the cache fresh instead
// of invalidating it — that is what makes delta-sized model updates cheap.
func (p *Problem) Precompute() {
	if len(p.marked) > 0 {
		for _, r := range p.marked {
			p.rescaleRow(r)
		}
		p.marked = p.marked[:0]
	}
	if p.csc == nil {
		p.csc = buildCSC(p)
	}
}

// rescaleRow re-derives the scale of row r from its current values. When the
// scale moves, the row, its rhs and its CSC entries are re-stored under the
// new one, exactly (the ratio of two powers of two is one), and every
// structural column of the row is stamped with a new patch version: the
// row's entries of those columns changed, so a carried factorization must
// replace the ones that are basic at install.
func (p *Problem) rescaleRow(r int) {
	rw := &p.rows[r]
	rw.marked = false
	s := rowScale(rw.coefs, rw.scale)
	if s == rw.scale {
		return
	}
	k := rw.scale / s
	rw.scale = s
	rw.rhs *= k
	p.patchVer++
	if p.colVer == nil {
		p.colVer = make([]uint64, p.n)
	}
	for i := range rw.coefs {
		c := &rw.coefs[i]
		c.Val *= k
		p.colVer[c.Var] = p.patchVer
		p.setCSC(c.Var, r, c.Val)
	}
}

// setCSC writes the cached CSC entry of (row r, column j), or drops the
// cache, to be rebuilt from the rows, when the entry is ambiguous (the row
// listed the same variable twice — no overlay model does).
func (p *Problem) setCSC(j, r int, v float64) {
	if p.csc == nil {
		return
	}
	if q := p.csc.find(j, int32(r)); q >= 0 {
		p.csc.val[q] = v
	} else {
		p.csc = nil
	}
}

// --- In-place patch API -------------------------------------------------
//
// The incremental LP rebuild (lpmodel.Patcher) re-uses one Problem across
// re-optimization epochs, rewriting only the coefficients, right-hand
// sides, bounds, and objective entries that a churn delta touched. Patches
// change VALUES only — the sparsity pattern (which (row, var) pairs exist)
// is fixed at AddConstraint time — so the cached CSC matrix is refreshed in
// place rather than rebuilt, and a warm-start Basis captured before the
// patch remains shape-compatible afterwards. The basis factorization IS
// persisted across solves (Basis.Fact): SetRowCoef stamps the patched
// column with a monotone version so a warm-start install can tell which
// columns that are basic in the carried factorization changed since it was
// built. It replaces those columns in the carried eta file and resumes from
// it (see Factorization).
//
// Patches must not race with concurrent solves of the same Problem (the
// shared-CSC concurrency guarantee of Precompute covers readers only), and
// a Problem shared by concurrent solves must be precomputed after its last
// patch: a solve re-derives the scales of rows patched since, which writes.

// SetRHS replaces the right-hand side of row r. The constraint matrix and
// its CSC cache are untouched.
func (p *Problem) SetRHS(r int, rhs float64) {
	p.rows[r].rhs = rhs / p.rows[r].scale
}

// RHS returns the relation and right-hand side of row r, bit for bit as set.
func (p *Problem) RHS(r int) (Rel, float64) {
	return p.rows[r].rel, p.rows[r].rhs * p.rows[r].scale
}

// SetRowCoef replaces the value of the pos-th coefficient of row r (the
// position within the Coef list passed to AddConstraint), updating the
// cached CSC entry in place when the cache is built. The solver reads both
// copies (the rows for its pivot rows, the cache for its columns), so every
// patch writes both. The value is stored under the row's current scale, and
// the row is marked for the next Precompute, which re-derives the scale
// from the row's new values. It reports whether the value actually changed,
// so callers can count real patches.
//
// If the CSC entry cannot be located unambiguously (the row listed the same
// variable twice — no overlay model does), the cache is invalidated and
// rebuilt lazily on the next solve; correctness is preserved either way.
func (p *Problem) SetRowCoef(r, pos int, v float64) bool {
	rw := &p.rows[r]
	c := &rw.coefs[pos]
	v /= rw.scale
	if c.Val == v {
		return false
	}
	c.Val = v
	p.patchVer++
	if p.colVer == nil {
		p.colVer = make([]uint64, p.n)
	}
	p.colVer[c.Var] = p.patchVer
	p.setCSC(c.Var, r, v)
	if !rw.marked {
		rw.marked = true
		p.marked = append(p.marked, r)
	}
	return true
}

// RowCoef returns the pos-th coefficient of row r, bit for bit as set.
func (p *Problem) RowCoef(r, pos int) Coef {
	c := p.rows[r].coefs[pos]
	c.Val *= p.rows[r].scale
	return c
}

// RowLen returns the number of coefficients of row r.
func (p *Problem) RowLen(r int) int {
	return len(p.rows[r].coefs)
}

// RowCoefs returns a copy of row r's coefficient list.
func (p *Problem) RowCoefs(r int) []Coef {
	out := append([]Coef(nil), p.rows[r].coefs...)
	for i := range out {
		out[i].Val *= p.rows[r].scale
	}
	return out
}

// ObjectiveCoef returns the objective coefficient of variable j.
func (p *Problem) ObjectiveCoef(j int) float64 {
	return p.obj[j]
}

// Diff compares p with q cell by cell, bit for bit as set: the variable and
// row counts, every objective coefficient and bound, and every row's
// relation, right-hand side and coefficients. It returns nil when they agree
// and otherwise an error naming the first cell that differs. The
// incremental LP rebuild is checked with it against a fresh build.
func (p *Problem) Diff(q *Problem) error {
	if p.n != q.n || len(p.rows) != len(q.rows) {
		return fmt.Errorf("lp: %d rows × %d vars, want %d × %d", len(p.rows), p.n, len(q.rows), q.n)
	}
	for j := 0; j < p.n; j++ {
		if p.obj[j] != q.obj[j] {
			return fmt.Errorf("lp: objective[%d] %.17g, want %.17g", j, p.obj[j], q.obj[j])
		}
		if p.lo[j] != q.lo[j] || p.hi[j] != q.hi[j] {
			return fmt.Errorf("lp: bounds[%d] [%g,%g], want [%g,%g]", j, p.lo[j], p.hi[j], q.lo[j], q.hi[j])
		}
	}
	for r := range p.rows {
		prel, prhs := p.RHS(r)
		qrel, qrhs := q.RHS(r)
		if prel != qrel || prhs != qrhs {
			return fmt.Errorf("lp: row %d rhs %v %.17g, want %v %.17g", r, prel, prhs, qrel, qrhs)
		}
		if p.RowLen(r) != q.RowLen(r) {
			return fmt.Errorf("lp: row %d has %d coefficients, want %d", r, p.RowLen(r), q.RowLen(r))
		}
		for pos := range p.rows[r].coefs {
			if pc, qc := p.RowCoef(r, pos), q.RowCoef(r, pos); pc != qc {
				return fmt.Errorf("lp: row %d coefficient %d (%d, %.17g), want (%d, %.17g)", r, pos, pc.Var, pc.Val, qc.Var, qc.Val)
			}
		}
	}
	return nil
}

// CheckCSCSync verifies that the cached CSC matrix (if built) agrees with
// the row storage entry by entry — the invariant the in-place patch API
// maintains. Tests call it after patch sequences; a nil cache trivially
// passes (it will be rebuilt from the rows).
func (p *Problem) CheckCSCSync() error {
	if p.csc == nil {
		return nil
	}
	want := buildCSC(p)
	if len(want.val) != len(p.csc.val) {
		return fmt.Errorf("lp: csc has %d entries, rows imply %d", len(p.csc.val), len(want.val))
	}
	for j := 0; j < p.n; j++ {
		if want.colPtr[j+1] != p.csc.colPtr[j+1] {
			return fmt.Errorf("lp: csc column %d pointer mismatch", j)
		}
	}
	for q := range want.val {
		if want.rowIdx[q] != p.csc.rowIdx[q] {
			return fmt.Errorf("lp: csc entry %d row mismatch: %d vs %d", q, p.csc.rowIdx[q], want.rowIdx[q])
		}
		if want.val[q] != p.csc.val[q] {
			return fmt.Errorf("lp: csc entry %d value mismatch: %g vs %g", q, p.csc.val[q], want.val[q])
		}
	}
	return nil
}

// Status reports the outcome of a solve.
type Status int

// Solve outcomes.
const (
	Optimal Status = iota
	Infeasible
	Unbounded
	IterLimit
)

func (s Status) String() string {
	switch s {
	case Optimal:
		return "optimal"
	case Infeasible:
		return "infeasible"
	case Unbounded:
		return "unbounded"
	case IterLimit:
		return "iteration-limit"
	}
	return "unknown"
}

// Basis is a compact snapshot of a simplex basis: the status (at lower
// bound, at upper bound, or basic) of every column — structural, slack, and
// artificial. It is the warm-start currency: Solution carries the final
// basis out of a solve, and Options.WarmStart feeds it back into a later
// solve of a same-shaped problem (same variable and row counts; costs and
// bounds are free to change). Statuses are interpreted against the bounds
// current at re-solve time, so a basis stays valid across branch-and-bound
// bound fixings and re-optimization cost scalings alike.
type Basis struct {
	// NumVars and NumRows identify the problem shape the basis belongs to.
	NumVars, NumRows int
	// ColStat holds one vstat per column: structural columns first, then
	// one slack per row, then one artificial per row.
	ColStat []int8
	// Fact, when non-nil, carries the persistent factorization the basis was
	// snapshotted with. It is an in-memory handle tied to the identity of the
	// Problem it was built from: a warm-start install of that Problem adopts
	// it instead of refactorizing when it is still valid, and any other
	// Problem refactorizes — see Factorization for the adoption contract. A
	// nil Fact simply refactorizes at install, so hand-built bases keep
	// working.
	Fact *Factorization
}

// Column status values in Basis.ColStat.
const (
	BasisAtLower int8 = iota
	BasisAtUpper
	BasisBasic
)

// Remap carries b over to a related problem through index maps: structural
// column j of the new problem is column colMap[j] of b's problem and row r
// is row rowMap[r], where -1 marks a column or row b's problem did not have.
// Mapped columns, slacks and artificials keep their status. A new column
// starts at its lower bound and a new row's slack is basic, so a new row
// the point already satisfies leaves the basis as primal feasible as b.
// Dropped basic columns and dropped rows with nonbasic slacks unbalance the
// basic count; Remap restores one basic column per row by demoting basic
// artificials, then structurals from the last column down, or by promoting
// nonbasic slacks from the first row up. A basis that this leaves singular
// is repaired at install, and one that is infeasible starts on the dual
// simplex (see Options.WarmStart). The result carries no Fact: it describes
// a different Problem, so the install refactorizes. A nil or malformed b,
// or a map entry out of range, returns nil, which solves cold.
func (b *Basis) Remap(colMap, rowMap []int) *Basis {
	if b == nil || len(b.ColStat) != b.NumVars+2*b.NumRows {
		return nil
	}
	n, m := b.NumVars, b.NumRows
	n2, m2 := len(colMap), len(rowMap)
	out := &Basis{NumVars: n2, NumRows: m2, ColStat: make([]int8, n2+2*m2)}
	basic := 0
	for j, old := range colMap {
		if old >= n {
			return nil
		}
		if old >= 0 {
			out.ColStat[j] = b.ColStat[old]
		}
		if out.ColStat[j] == BasisBasic {
			basic++
		}
	}
	for r, old := range rowMap {
		switch {
		case old >= m:
			return nil
		case old >= 0:
			out.ColStat[n2+r] = b.ColStat[n+old]
			out.ColStat[n2+m2+r] = b.ColStat[n+m+old]
		default:
			out.ColStat[n2+r] = BasisBasic
		}
		if out.ColStat[n2+r] == BasisBasic {
			basic++
		}
		if out.ColStat[n2+m2+r] == BasisBasic {
			basic++
		}
	}
	for j := len(out.ColStat) - 1; j >= n2+m2 && basic > m2; j-- {
		if out.ColStat[j] == BasisBasic {
			out.ColStat[j] = BasisAtLower
			basic--
		}
	}
	for j := n2 - 1; j >= 0 && basic > m2; j-- {
		if out.ColStat[j] == BasisBasic {
			out.ColStat[j] = BasisAtLower
			basic--
		}
	}
	for r := 0; r < m2 && basic < m2; r++ {
		if out.ColStat[n2+r] != BasisBasic {
			out.ColStat[n2+r] = BasisBasic
			basic++
		}
	}
	return out
}

// compatible reports whether b can warm-start problem p.
func (b *Basis) compatible(p *Problem) bool {
	if b == nil || b.NumVars != p.n || b.NumRows != len(p.rows) {
		return false
	}
	if len(b.ColStat) != p.n+2*len(p.rows) {
		return false
	}
	basic := 0
	for _, st := range b.ColStat {
		if st == BasisBasic {
			basic++
		}
	}
	return basic == len(p.rows)
}

// SolveStats counts the factorization-level events of a solve, surfaced so
// the re-optimization loop can see where warm starts spend their time. All
// counters are totals over the warm attempt and any cold fallback.
type SolveStats struct {
	// WarmStarts counts solves that were offered a warm start compatible
	// with their problem; WarmStarts − WarmFallbacks of them finished warm.
	WarmStarts int
	// Refactorizations counts from-scratch basis factorizations.
	Refactorizations int
	// FTUpdates counts warm-start installs that adopted a carried
	// factorization (product-form resume) instead of refactorizing.
	FTUpdates int
	// Replacements counts patched basic columns an adoption replaced in the
	// carried factorization (one product-form eta each) instead of
	// refactorizing.
	Replacements int
	// WarmFallbacks counts solves that were offered a compatible warm start
	// but returned a solution from the cold path (the warm attempt failed,
	// ended non-optimal, or failed the feasibility audit).
	WarmFallbacks int
	// Repairs counts dependent basic columns a warm-start install swapped
	// for row slacks to make a singular carried basis factorizable.
	Repairs int
}

// Add accumulates o into s.
func (s *SolveStats) Add(o SolveStats) {
	s.WarmStarts += o.WarmStarts
	s.Refactorizations += o.Refactorizations
	s.FTUpdates += o.FTUpdates
	s.Replacements += o.Replacements
	s.WarmFallbacks += o.WarmFallbacks
	s.Repairs += o.Repairs
}

// EventKind identifies a solver-internal occurrence surfaced through
// Options.Events. The kinds mirror the SolveStats counters one-to-one, save
// WarmStarts, so an Events subscriber sees each counted event as it happens
// (with its pivot iteration) instead of only the totals.
type EventKind int

// Solver-internal event kinds.
const (
	// EventRefactorization fires when the basis inverse is rebuilt from
	// scratch.
	EventRefactorization EventKind = iota
	// EventFTAdoption fires when a warm-start install adopts a carried
	// factorization instead of refactorizing.
	EventFTAdoption
	// EventColumnReplacement fires when an adoption replaces a patched basic
	// column in the carried factorization.
	EventColumnReplacement
	// EventWarmFallback fires when a compatible warm start is abandoned and
	// the solve continues from a cold crash basis.
	EventWarmFallback
	// EventBasisRepair fires when a warm-start install swaps a dependent
	// basic column for a row slack.
	EventBasisRepair
)

func (k EventKind) String() string {
	switch k {
	case EventRefactorization:
		return "refactorization"
	case EventFTAdoption:
		return "ft-adoption"
	case EventColumnReplacement:
		return "column-replacement"
	case EventWarmFallback:
		return "warm-fallback"
	case EventBasisRepair:
		return "basis-repair"
	}
	return "unknown"
}

// Event is one solver-internal occurrence: its kind and the pivot iteration
// it happened at (0 when it precedes the first pivot, e.g. the install-time
// refactorization).
type Event struct {
	Kind      EventKind
	Iteration int
}

// Solution is the result of Solve.
type Solution struct {
	Status     Status
	X          []float64 // structural variable values
	Objective  float64
	Iterations int
	// Basis is the final simplex basis (nil at non-Optimal statuses). Feed
	// it to Options.WarmStart to accelerate a re-solve of a same-shaped
	// problem.
	Basis *Basis
	// Stats counts factorization events.
	Stats SolveStats
	// Duals holds the row dual values y = c_B·B⁻¹ at the optimum (nil at
	// non-Optimal statuses). Duals[r] is the shadow price of row r's right-hand side:
	// the rate of change of the optimal objective per unit of rhs_r. Under
	// this minimization convention a binding ≤ row has Duals[r] ≤ 0 and a
	// binding ≥ row has Duals[r] ≥ 0; nonbinding rows price at 0.
	Duals []float64
}

// DualsFor gathers the dual values of the given rows (see Solution.Duals).
// It returns nil when the solve produced no duals (a non-Optimal status),
// so callers can fall back gracefully.
// Out-of-range row indices read as 0.
func (sol *Solution) DualsFor(rows []int) []float64 {
	if sol == nil || sol.Duals == nil {
		return nil
	}
	out := make([]float64, len(rows))
	for i, r := range rows {
		if r >= 0 && r < len(sol.Duals) {
			out[i] = sol.Duals[r]
		}
	}
	return out
}

// Options tunes the solver. The zero value selects sensible defaults.
type Options struct {
	// WarmStart, when non-nil and shape-compatible with the problem,
	// starts the solver from this basis: primal phase 2 directly if the
	// basis is primal feasible, the dual simplex otherwise (under shifted
	// costs when the basis is not dual feasible either). A singular basis
	// is repaired at install; a cold start is the last resort.
	WarmStart *Basis
	// RefactorOnInstall forces every warm-start install to refactorize from
	// scratch instead of adopting a carried Basis.Fact: the pre-persistence
	// behavior, kept as the reference arm of the persistence equivalence
	// tests and measurements.
	RefactorOnInstall bool
	// Events, when non-nil, receives solver-internal events as they happen —
	// one call per SolveStats increment, WarmStarts aside (see EventKind).
	// The callback runs on the solving goroutine inside the pivot loop; it
	// must be cheap and must not call back into the solver. Used by the
	// observability layer to attach refactorization/FT-adoption/
	// column-replacement events to trace spans.
	Events func(Event)

	// maxIters bounds the pivots of each attempt, over all its phases
	// (default 200*(rows+columns)+2000, where columns counts a slack and an
	// artificial per row). Only tests lower it.
	maxIters int
}

// numerical tolerances
const (
	tolPivot = 1e-9 // minimum |pivot| accepted
	tolCost  = 1e-9 // reduced-cost optimality tolerance
	tolFeas  = 1e-7 // feasibility tolerance on variable bounds
	tolArt   = 1e-7 // phase-1 objective threshold for feasibility
)

// variable status in the simplex
type vstat int8

const (
	atLower vstat = iota
	atUpper
	basic
)

// Solve runs the simplex and returns the optimal solution, or a Solution
// with a non-Optimal status.
func (p *Problem) Solve() (*Solution, error) {
	return p.SolveOpts(Options{})
}

// SolveOpts is Solve with explicit options.
func (p *Problem) SolveOpts(opts Options) (*Solution, error) {
	for j := 0; j < p.n; j++ {
		if math.IsInf(p.lo[j], -1) || math.IsNaN(p.lo[j]) {
			return nil, fmt.Errorf("lp: variable %d has non-finite lower bound %g", j, p.lo[j])
		}
		if p.hi[j] < p.lo[j] {
			return nil, fmt.Errorf("lp: variable %d has empty bound range [%g,%g]", j, p.lo[j], p.hi[j])
		}
	}
	return p.solveSparse(opts)
}

// objectiveOf evaluates c·x.
func (p *Problem) objectiveOf(x []float64) float64 {
	obj := 0.0
	for j := 0; j < p.n; j++ {
		obj += p.obj[j] * x[j]
	}
	return obj
}

// CheckFeasible verifies that x satisfies all constraints and bounds of p
// within tol, returning a descriptive error for the first violation. It is
// used by tests and by the solver audits.
func (p *Problem) CheckFeasible(x []float64, tol float64) error {
	if len(x) != p.n {
		return fmt.Errorf("lp: solution has %d vars, want %d", len(x), p.n)
	}
	for j := 0; j < p.n; j++ {
		if x[j] < p.lo[j]-tol || x[j] > p.hi[j]+tol {
			return fmt.Errorf("lp: x[%d]=%g outside [%g,%g]", j, x[j], p.lo[j], p.hi[j])
		}
	}
	for r, rw := range p.rows {
		// Sum and compare on the row as set: scaling the sum of the stored
		// row by its power-of-two scale gives the unscaled sum bit for bit.
		v, big := 0.0, 0.0
		for _, c := range rw.coefs {
			v += c.Val * x[c.Var]
			big = max(big, math.Abs(c.Val))
		}
		v *= rw.scale
		rhs := rw.rhs * rw.scale
		// Scale tolerance with row magnitude for robustness.
		rtol := tol * max(1, big*rw.scale) * float64(1+len(rw.coefs))
		switch rw.rel {
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

// ErrNotOptimal is returned by helpers that require an optimal solution.
var ErrNotOptimal = errors.New("lp: not optimal")

// MustSolve solves p and returns the solution if optimal; otherwise it
// returns an error wrapping the status.
func (p *Problem) MustSolve() (*Solution, error) {
	sol, err := p.Solve()
	if err != nil {
		return nil, err
	}
	if sol.Status != Optimal {
		return sol, fmt.Errorf("%w: status %v", ErrNotOptimal, sol.Status)
	}
	return sol, nil
}
