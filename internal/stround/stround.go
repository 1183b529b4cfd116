// Package stround implements the §6.5 rounding used for the extensions of
// the paper: capacities between reflectors and sinks (§6.3) and color
// constraints (§6.4). Plain network-flow integrality fails once "entangled
// set" constraints couple edges (the paper's Figure 3 gap), so the final
// stage is reformulated as a *path LP* over the Figure-2 network and rounded
// with dependent randomized rounding in the spirit of Srinivasan–Teo
// (Theorem 2.2 of [28]): the paper needs only the existence of an integral
// solution with cost ≤ 14X and additive constraint violation ≤ 7, and this
// package certifies exactly those bounds on every run (retrying the
// randomness when a rare tail event exceeds them, and surfacing the realized
// violations in the result).
//
// Because every s→box path in the Figure-2 network is fully determined by a
// ((reflector, sink) pair, box) choice, the path LP collapses to variables
//
//	g[p,b] = flow carried by pair p into box b of p's sink
//
// with box-demand rows (ii), pair/fanout/color capacity rows (i)+(iii), and
// the cost control (iv). The dependent rounding picks at most one incoming
// path per box with probability equal to the doubled fractional flow, which
// satisfies rows (ii) with equality whenever the fractional flow covered the
// box — the same structural property Srinivasan–Teo's rounding guarantees.
//
// The path LP is one Problem solved in two stages: stage 1 maximizes the
// covered box mass, and stage 2 minimizes cost among the flows that keep
// stage 1's coverage, resuming stage 1's basis. A State carries the Problem
// and both bases from one call to the next.
package stround

import (
	"fmt"
	"slices"

	"repro/internal/gapflow"
	"repro/internal/lp"
	"repro/internal/netmodel"
	"repro/internal/stats"
)

// Options configures the path rounding.
type Options struct {
	Seed uint64
	// MaxRetries bounds re-randomization when the audited bounds fail.
	// Default 32.
	MaxRetries int
	// CostFactor is the certified cost bound versus the fractional
	// stage cost X (paper: 14). Default 14.
	CostFactor float64
	// AdditiveSlack is the certified additive violation bound on fanout
	// and color constraints (paper: 7). Default 7.
	AdditiveSlack float64
}

// DefaultOptions returns the paper's §6.5 constants.
func DefaultOptions(seed uint64) Options {
	return Options{Seed: seed, MaxRetries: 32, CostFactor: 14, AdditiveSlack: 7}
}

// Result is the outcome of the path rounding.
type Result struct {
	Serve [][]bool
	// TotalBoxes and ServedBoxes: a box can be unserved only when the
	// fractional path LP could not cover it (capacity-infeasible).
	TotalBoxes, ServedBoxes int
	// FracCost is the path-LP fractional optimum; FinalCost the cost of
	// the x-part of the rounded solution.
	FracCost, FinalCost float64
	// MaxFanoutExcess and MaxColorExcess are the realized additive
	// violations (against F_i, and against the per-(color,sink) cap 1).
	MaxFanoutExcess float64
	MaxColorExcess  int
	Retries         int
	// PathLP is the solver side of the call: how its path LP started and
	// what both stages cost. It is zero when the call had no boxes and so
	// solved no LP.
	PathLP
}

// PathLP reports the path-LP solves of one Round call.
type PathLP struct {
	// Start says how the call's path LP began.
	Start Start
	// Pivots counts the simplex pivots of both stages, and LPStats sums
	// their solver events (refactorizations, factorization adoptions, warm
	// fallbacks, ...).
	Pivots  int
	LPStats lp.SolveStats
}

// Start says how a call's path LP began.
type Start int

// The ways a path LP starts.
const (
	// StartCold solves stage 1 from a crash basis: the call carried no
	// State, or its State held no basis yet.
	StartCold Start = iota
	// StartRemapped builds a fresh LP because the keys changed since the
	// previous call, and warm-starts stage 1 from the previous stage-1
	// basis carried through the key map (lp.Basis.Remap).
	StartRemapped
	// StartResumed patches the carried LP in place because its keys
	// repeated, and resumes both stages from their carried bases and
	// factorizations.
	StartResumed
)

func (s Start) String() string {
	switch s {
	case StartCold:
		return "cold"
	case StartRemapped:
		return "remapped"
	case StartResumed:
		return "resumed"
	}
	return "unknown"
}

// Totals sums the PathLP reports of several Round calls: a solve's audit
// attempts, or a timeline's epochs.
type Totals struct {
	Pivots                  int
	LPStats                 lp.SolveStats
	Resumed, Remapped, Cold int
}

// Add counts r's path LP; a call without boxes solved none.
func (t *Totals) Add(r *Result) {
	if r == nil || r.TotalBoxes == 0 {
		return
	}
	t.Pivots += r.Pivots
	t.LPStats.Add(r.LPStats)
	switch r.Start {
	case StartResumed:
		t.Resumed++
	case StartRemapped:
		t.Remapped++
	default:
		t.Cold++
	}
}

// State carries the path LP from one Round call to the next, so a
// re-optimization loop that rounds a slowly changing x̄ every epoch does not
// build and solve the LP from nothing each time. It keeps the last call's
// Problem, its column and row keys, and the final basis of each stage:
//
//   - when the next call's keys equal the kept ones, its LP has the same
//     columns and rows in the same order. The call patches the values that
//     can move (pair and fanout right-hand sides, fanout coefficients,
//     costs) into the kept Problem and resumes each stage from its kept
//     basis, whose factorization the solver adopts (StartResumed);
//   - when they differ, the call builds a fresh Problem and warm-starts
//     stage 1 from the kept stage-1 basis through the key map
//     (StartRemapped).
//
// The zero State holds nothing yet; a nil *State never carries anything. A
// call that fails forgets the kept LP. A State is not safe for concurrent
// use.
type State struct {
	prob           *lp.Problem
	cols           []colKey
	rows           []rowKey
	basis1, basis2 *lp.Basis
}

// colKey names a path variable across calls: its (reflector, sink) pair,
// the ordinal of its box among the sink's boxes, and the reflector's color
// (-1 without colors), which places the variable in its color row.
type colKey struct{ refl, sink, box, color int32 }

// rowKey names a path-LP row across calls: its kind and the indices the
// kind is keyed by.
type rowKey struct {
	kind rowKind
	a, b int32
}

type rowKind int8

const (
	boxRow    rowKind = iota // (sink, box ordinal)
	pairRow                  // (reflector, sink)
	fanoutRow                // (reflector)
	colorRow                 // (sink, color)
	coverRow                 // the coverage row, always last
)

type pairRec struct {
	refl, sink int
	w          float64
}

type boxRec struct {
	sink, ord int
	lo, hi    float64
}

type pathVar struct {
	pair, box int
}

// pathLP is one call's path LP before it becomes an lp.Problem: the
// Figure-2 pairs and boxes, the path variables g[p,b] with their keys, and
// the rows in their fixed order — box rows, pair rows, fanout rows, color
// rows, then the coverage row.
type pathLP struct {
	pairs     []pairRec
	boxes     []boxRec
	vars      []pathVar
	cols      []colKey
	varsOfBox [][]int
	rows      []rowSpec
}

// rowSpec is one row: the sum of its variables' coefficients times g is at
// most rhs (at least, for the coverage row). A fanout row's coefficients
// are its variables' unit loads; every other row's are 1.
type rowSpec struct {
	key  rowKey
	rhs  float64
	vars []int
}

// newPathLP derives the path LP of x̄: the level-3 pairs and level-4 boxes
// of the Figure-2 network, the path variables of the weight-compatible
// (pair, box) combinations, and their rows.
func newPathLP(in *netmodel.Instance, xbar [][]float64) *pathLP {
	_, R, D := in.Dims()
	m := &pathLP{}
	pairsOfSink := make([][]int, D)
	for i := 0; i < R; i++ {
		for j := 0; j < D; j++ {
			if xbar[i][j] > 1e-12 {
				pairsOfSink[j] = append(pairsOfSink[j], len(m.pairs))
				m.pairs = append(m.pairs, pairRec{refl: i, sink: j, w: in.CappedWeight(i, j)})
			}
		}
	}
	for j := 0; j < D; j++ {
		ws := make([]float64, 0, len(pairsOfSink[j]))
		xs := make([]float64, 0, len(pairsOfSink[j]))
		for _, pIdx := range pairsOfSink[j] {
			ws = append(ws, m.pairs[pIdx].w)
			xs = append(xs, xbar[m.pairs[pIdx].refl][j])
		}
		for ord, b := range gapflow.BoxesForSink(ws, xs, j) {
			m.boxes = append(m.boxes, boxRec{sink: j, ord: ord, lo: b.Lo, hi: b.Hi})
		}
	}
	if len(m.boxes) == 0 {
		return m
	}

	// Path variables g[p,b] for weight-compatible (pair, box).
	m.varsOfBox = make([][]int, len(m.boxes))
	varsOfPair := make([][]int, len(m.pairs))
	for b, bx := range m.boxes {
		for _, pIdx := range pairsOfSink[bx.sink] {
			p := m.pairs[pIdx]
			if p.w >= bx.lo-1e-12 && p.w <= bx.hi+1e-12 {
				vid := len(m.vars)
				m.vars = append(m.vars, pathVar{pair: pIdx, box: b})
				color := int32(-1)
				if in.Color != nil {
					color = int32(in.Color[p.refl])
				}
				m.cols = append(m.cols, colKey{refl: int32(p.refl), sink: int32(p.sink), box: int32(bx.ord), color: color})
				m.varsOfBox[b] = append(m.varsOfBox[b], vid)
				varsOfPair[pIdx] = append(varsOfPair[pIdx], vid)
			}
		}
	}

	// (ii) box demand rows: Σ g ≤ 1/2 (stage 1 maximizes coverage).
	for b, bx := range m.boxes {
		m.rows = append(m.rows, rowSpec{key: rowKey{boxRow, int32(bx.sink), int32(bx.ord)}, rhs: 0.5, vars: m.varsOfBox[b]})
	}
	// (i) pair capacity: level-3 node cap 1, tightened by §6.3 edge caps
	// u_ij when present.
	for pIdx, pr := range m.pairs {
		if len(varsOfPair[pIdx]) == 0 {
			continue
		}
		capv := 1.0
		if in.EdgeCap != nil && in.EdgeCap[pr.refl][pr.sink] < capv {
			capv = in.EdgeCap[pr.refl][pr.sink]
		}
		m.rows = append(m.rows, rowSpec{key: rowKey{pairRow, int32(pr.refl), int32(pr.sink)}, rhs: capv, vars: varsOfPair[pIdx]})
	}
	// (i) fanout rows: bandwidth-weighted use of reflector i ≤ F_i.
	perRefl := make([][]int, R)
	for pIdx, pr := range m.pairs {
		perRefl[pr.refl] = append(perRefl[pr.refl], varsOfPair[pIdx]...)
	}
	for i, vars := range perRefl {
		if len(vars) > 0 {
			m.rows = append(m.rows, rowSpec{key: rowKey{kind: fanoutRow, a: int32(i)}, rhs: in.Fanout[i], vars: vars})
		}
	}
	// (iii) entangled sets: per (color, sink) cap 1 (§6.4).
	if in.Color != nil {
		for j := 0; j < D; j++ {
			perColor := make([][]int, in.NumColors)
			for _, pIdx := range pairsOfSink[j] {
				c := in.Color[m.pairs[pIdx].refl]
				perColor[c] = append(perColor[c], varsOfPair[pIdx]...)
			}
			for c, vars := range perColor {
				if len(vars) > 1 {
					m.rows = append(m.rows, rowSpec{key: rowKey{colorRow, int32(j), int32(c)}, rhs: 1, vars: vars})
				}
			}
		}
	}
	// The coverage row Σ g ≥ rhs over every variable: inactive in stage 1
	// (rhs 0), it holds stage 2 to stage 1's coverage.
	all := make([]int, len(m.vars))
	for vid := range all {
		all[vid] = vid
	}
	m.rows = append(m.rows, rowSpec{key: rowKey{kind: coverRow}, vars: all})
	return m
}

// coef is variable vid's coefficient in a row of the given kind.
func (m *pathLP) coef(in *netmodel.Instance, kind rowKind, vid int) float64 {
	if kind == fanoutRow {
		return in.UnitLoad(m.pairs[m.vars[vid].pair].sink)
	}
	return 1
}

// build returns the path LP as a fresh Problem, its objective still zero
// (see stage1 and stage2).
func (m *pathLP) build(in *netmodel.Instance) *lp.Problem {
	p := lp.NewProblem(len(m.vars))
	for vid := range m.vars {
		p.SetBounds(vid, 0, 0.5) // pair→box edge capacity 1/2
	}
	for _, row := range m.rows {
		coefs := make([]lp.Coef, len(row.vars))
		for i, vid := range row.vars {
			coefs[i] = lp.Coef{Var: vid, Val: m.coef(in, row.key.kind, vid)}
		}
		rel := lp.LE
		if row.key.kind == coverRow {
			rel = lp.GE
		}
		p.AddConstraint(rel, row.rhs, coefs...)
	}
	return p
}

// patch brings p, the build of a previous call with the same keys, to m's
// values: the right-hand sides and the fanout rows' coefficients. Bounds
// and every other coefficient are fixed by the keys, and the objective and
// the coverage rhs are set per stage.
func (m *pathLP) patch(in *netmodel.Instance, p *lp.Problem) {
	for r, row := range m.rows {
		p.SetRHS(r, row.rhs)
		if row.key.kind == fanoutRow {
			for pos, vid := range row.vars {
				p.SetRowCoef(r, pos, m.coef(in, fanoutRow, vid))
			}
		}
	}
}

// stage1 sets p up to maximize covered box mass: objective −1 on every
// path, coverage row inactive.
func (m *pathLP) stage1(p *lp.Problem) {
	for vid := range m.vars {
		p.SetObjectiveCoef(vid, -1)
	}
	p.SetRHS(len(m.rows)-1, 0)
}

// stage2 sets p up to minimize cost among the flows that cover stage 1's
// optimum, to 1e-7.
func (m *pathLP) stage2(in *netmodel.Instance, p *lp.Problem, coverage float64) {
	for vid, v := range m.vars {
		pr := m.pairs[v.pair]
		p.SetObjectiveCoef(vid, in.RefSinkCost[pr.refl][pr.sink])
	}
	p.SetRHS(len(m.rows)-1, coverage-1e-7)
}

func (m *pathLP) rowKeys() []rowKey {
	keys := make([]rowKey, len(m.rows))
	for r, row := range m.rows {
		keys[r] = row.key
	}
	return keys
}

// Round runs the §6.5 stage on the fractional x̄ from the §3 rounding,
// solving its path LP from nothing.
func Round(in *netmodel.Instance, xbar [][]float64, opts Options) (*Result, error) {
	return (*State)(nil).Round(in, xbar, opts)
}

// Round is the package-level Round with the path LP carried in st from
// the previous call (see State).
func (st *State) Round(in *netmodel.Instance, xbar [][]float64, opts Options) (*Result, error) {
	if opts.MaxRetries == 0 {
		opts.MaxRetries = 32
	}
	if opts.CostFactor == 0 {
		opts.CostFactor = 14
	}
	if opts.AdditiveSlack == 0 {
		opts.AdditiveSlack = 7
	}
	_, R, D := in.Dims()
	m := newPathLP(in, xbar)
	if len(m.boxes) == 0 {
		return &Result{Serve: emptyServe(R, D)}, nil
	}
	sol2, run, err := st.solve(in, m)
	if err != nil {
		return nil, err
	}
	g := sol2.X
	fracCost := sol2.Objective

	// §6.5 preprocessing: eliminate paths costing more than 4X before
	// rounding (they alone would blow the cost bound).
	if fracCost > 0 {
		for vid, v := range m.vars {
			pr := m.pairs[v.pair]
			if g[vid] > 0 && in.RefSinkCost[pr.refl][pr.sink] > 4*fracCost {
				g[vid] = 0
			}
		}
	}

	// Dependent rounding with audit-and-retry.
	rng := stats.NewRNG(opts.Seed)
	var best *Result
	for attempt := 0; attempt <= opts.MaxRetries; attempt++ {
		res := sampleOnce(in, m, g, rng)
		res.FracCost = fracCost
		res.Retries = attempt
		okCost := fracCost <= 0 || res.FinalCost <= opts.CostFactor*fracCost
		if okCost && res.MaxFanoutExcess <= opts.AdditiveSlack && float64(res.MaxColorExcess) <= opts.AdditiveSlack {
			best = res
			break
		}
		if best == nil || better(res, best) {
			best = res
		}
	}
	best.PathLP = run
	return best, nil
}

// solve runs both stages of m's path LP, from the state st carries, and
// returns stage 2's optimum. A failed call forgets the kept LP.
func (st *State) solve(in *netmodel.Instance, m *pathLP) (sol2 *lp.Solution, run PathLP, err error) {
	defer func() {
		if err != nil {
			st.forget()
		}
	}()
	p, warm1, warm2 := st.prepare(in, m, &run)

	// Stage 1: maximize covered box mass under the true capacities.
	m.stage1(p)
	sol1, err := p.SolveOpts(lp.Options{WarmStart: warm1})
	if err != nil {
		return nil, run, err
	}
	run.add(sol1)
	probeSolve(in, m, 1, 0, run.Start, p, sol1)
	if sol1.Status != lp.Optimal {
		return nil, run, fmt.Errorf("stround: stage-1 LP status %v", sol1.Status)
	}
	coverage := -sol1.Objective

	// Stage 2: among maximum-coverage flows, minimize cost. Its LP is stage
	// 1's with new costs and the coverage row raised to 1e-7 below stage
	// 1's optimum, which that optimum satisfies with the row's slack basic.
	// Unless a carried stage-2 basis resumes it, stage 2 therefore starts
	// from stage 1's basis and factorization on the same Problem, in primal
	// phase 2. An optimal stage 1 always carries a basis; one without
	// (TestStage2ColdWithoutStage1Basis strips it) leaves stage 2 to solve
	// cold.
	m.stage2(in, p, coverage)
	if warm2 == nil {
		warm2 = sol1.Basis
	}
	sol2, err = p.SolveOpts(lp.Options{WarmStart: warm2})
	if err != nil {
		return nil, run, err
	}
	run.add(sol2)
	probeSolve(in, m, 2, coverage, run.Start, p, sol2)
	if sol2.Status != lp.Optimal {
		return nil, run, fmt.Errorf("stround: stage-2 LP status %v", sol2.Status)
	}
	st.keep(p, m, sol1.Basis, sol2.Basis)
	return sol2, run, nil
}

func (r *PathLP) add(sol *lp.Solution) {
	r.Pivots += sol.Iterations
	r.LPStats.Add(sol.Stats)
}

// prepare returns the Problem the call solves and the warm starts of its
// two stages (nil: stage 1 cold, stage 2 from stage 1), and records in run
// how the call starts.
func (st *State) prepare(in *netmodel.Instance, m *pathLP, run *PathLP) (p *lp.Problem, warm1, warm2 *lp.Basis) {
	switch {
	case st == nil || st.basis1 == nil:
		run.Start = StartCold
		return m.build(in), nil, nil
	case st.sameKeys(m):
		run.Start = StartResumed
		m.patch(in, st.prob)
		return st.prob, st.basis1, st.basis2
	default:
		run.Start = StartRemapped
		return m.build(in), st.basis1.Remap(keyMap(st.cols, m.cols), keyMap(st.rows, m.rowKeys())), nil
	}
}

// sameKeys reports whether m has the kept LP's columns and rows, in order.
func (st *State) sameKeys(m *pathLP) bool {
	if !slices.Equal(st.cols, m.cols) || len(st.rows) != len(m.rows) {
		return false
	}
	for r, row := range m.rows {
		if st.rows[r] != row.key {
			return false
		}
	}
	return true
}

// keep records the call's LP and final bases for the next call.
func (st *State) keep(p *lp.Problem, m *pathLP, basis1, basis2 *lp.Basis) {
	if st == nil {
		return
	}
	if p != st.prob {
		st.prob, st.cols, st.rows = p, m.cols, m.rowKeys()
	}
	st.basis1, st.basis2 = basis1, basis2
}

// forget drops the kept LP, so the next call starts cold.
func (st *State) forget() {
	if st != nil {
		*st = State{}
	}
}

// keyMap maps each key of cur to its index in prev, -1 where prev lacks it.
func keyMap[K comparable](prev, cur []K) []int {
	at := make(map[K]int, len(prev))
	for i, k := range prev {
		at[k] = i
	}
	out := make([]int, len(cur))
	for i, k := range cur {
		j, ok := at[k]
		if !ok {
			j = -1
		}
		out[i] = j
	}
	return out
}

// probe, when non-nil, sees every path-LP solve Round makes: the stage (1
// or 2), how the call started, the Problem as solved, its solution, and a
// fresh build of the same stage LP. Tests set it to check carried solves
// against cold ones and patched Problems against fresh builds.
var probe func(stage int, start Start, p *lp.Problem, sol *lp.Solution, fresh *lp.Problem)

func probeSolve(in *netmodel.Instance, m *pathLP, stage int, coverage float64, start Start, p *lp.Problem, sol *lp.Solution) {
	if probe == nil {
		return
	}
	fresh := m.build(in)
	if stage == 1 {
		m.stage1(fresh)
	} else {
		m.stage2(in, fresh, coverage)
	}
	probe(stage, start, p, sol, fresh)
}

func emptyServe(r, d int) [][]bool {
	s := make([][]bool, r)
	for i := range s {
		s[i] = make([]bool, d)
	}
	return s
}

func better(a, b *Result) bool {
	if a.ServedBoxes != b.ServedBoxes {
		return a.ServedBoxes > b.ServedBoxes
	}
	av := a.MaxFanoutExcess + float64(a.MaxColorExcess)
	bv := b.MaxFanoutExcess + float64(b.MaxColorExcess)
	if av != bv {
		return av < bv
	}
	return a.FinalCost < b.FinalCost
}

func sampleOnce(in *netmodel.Instance, m *pathLP, g []float64, rng *stats.RNG) *Result {
	_, R, D := in.Dims()
	res := &Result{TotalBoxes: len(m.boxes), Serve: emptyServe(R, D)}
	for b := range m.boxes {
		// Doubled flows 2g form a (sub-)distribution over incoming paths.
		u := rng.Float64()
		acc := 0.0
		chosen := -1
		for _, vid := range m.varsOfBox[b] {
			acc += 2 * g[vid]
			if u < acc {
				chosen = vid
				break
			}
		}
		if chosen < 0 {
			continue // box unserved: fractional coverage was < 1/2
		}
		p := m.pairs[m.vars[chosen].pair]
		res.Serve[p.refl][p.sink] = true
		res.ServedBoxes++
	}
	// Audit the realized violations.
	for i := 0; i < R; i++ {
		use := 0.0
		for j := 0; j < D; j++ {
			if res.Serve[i][j] {
				use += in.UnitLoad(j)
				res.FinalCost += in.RefSinkCost[i][j]
			}
		}
		if ex := use - in.Fanout[i]; ex > res.MaxFanoutExcess {
			res.MaxFanoutExcess = ex
		}
	}
	if in.Color != nil {
		for j := 0; j < D; j++ {
			counts := make([]int, in.NumColors)
			for i := 0; i < R; i++ {
				if res.Serve[i][j] {
					counts[in.Color[i]]++
				}
			}
			for _, c := range counts {
				if c-1 > res.MaxColorExcess {
					res.MaxColorExcess = c - 1
				}
			}
		}
	}
	return res
}
