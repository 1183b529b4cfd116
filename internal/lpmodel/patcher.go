package lpmodel

// The incremental LP rebuild. Every epoch of the §1.3 monitoring loop used
// to rebuild the whole CSC constraint matrix from the instance (lp-build ≈
// lp-solve wall under warm starts); a Patcher instead owns one lp.Problem
// across epochs and, because Options.FixedShape pins both the row layout
// and the sparsity pattern to the instance dimensions, translates a churn
// delta's dirty set into in-place coefficient/rhs/objective patches. Only
// the cells a delta touched are recomputed — the per-epoch model cost drops
// from O(instance) to O(delta).

import (
	"repro/internal/lp"
	"repro/internal/netmodel"
)

// PatchStats reports what one Sync did.
type PatchStats struct {
	// Rebuilt is true when Sync fell back to a full Build (first call, or
	// the instance shape / model options changed).
	Rebuilt bool
	// Coefs counts constraint-matrix values actually changed, RHS the
	// right-hand sides, Obj the objective coefficients. Idempotent
	// re-patches of an unchanged value count nothing.
	Coefs, RHS, Obj int
}

// Patches returns the total number of changed cells.
func (st PatchStats) Patches() int { return st.Coefs + st.RHS + st.Obj }

// Patcher owns a persistent, patchable Build: the lp.Problem and VarMap of
// one instance shape, kept semantically identical to a fresh
// Build(in, opts) across epochs by Sync. The zero lifecycle is:
//
//	pt := lpmodel.NewPatcher()
//	prob, vm, _ := pt.Sync(in, opts, nil)      // epoch 0: full Build
//	... solve, deploy ...
//	dirty, _ := delta.Apply(in)                 // churn
//	prob, vm, st := pt.Sync(in, opts, dirty)    // epoch 1: O(delta) patches
//
// The contract is the dirty set's: every instance cell that changed since
// the previous Sync must be listed (netmodel.Delta.Apply reports its edits;
// core.Session adds the stickiness-bias flips via netmodel.DiffDesigns).
// Fanout is the exception — the Patcher keeps a shadow copy and value-diffs
// it each Sync, because the sharded path rescales per-shard fanout
// allocations outside the delta flow. Unreported mutations of any other
// field leave the patched LP stale; the golden equivalence tests lock the
// delta flow against that.
//
// A Patcher is single-threaded: Sync must not race with solves of the
// returned Problem. One Patcher serves one LP shape; per-shard LPs each get
// their own (carried in shard.State).
type Patcher struct {
	prob *lp.Problem
	vm   *VarMap

	// Shape and options identity of the current build.
	s, r, d int
	opts    Options

	// Row-layout offsets (Build emits rows in a fixed order; see layout()).
	base3, base5 int
	kCount       int   // commodities with at least one sink (cutting-plane rows per reflector)
	kRank        []int // commodity → dense rank among nonempty ones, -1 if empty
	byCommodity  [][]int
	posInK       []int // sink j → its position within byCommodity[Commodity[j]]

	// fanout is the shadow copy value-diffed on every Sync.
	fanout []float64

	// Builds and Syncs count full rebuilds / total syncs (diagnostics).
	Builds, Syncs int
}

// NewPatcher returns an empty patcher; the first Sync performs a full Build.
func NewPatcher() *Patcher { return &Patcher{} }

// Problem returns the Problem of the latest Sync (nil before the first).
func (pt *Patcher) Problem() *lp.Problem { return pt.prob }

// NeedsRebuild reports whether the next Sync with these arguments will fall
// back to a full Build instead of patching. Callers use it to pick the
// stage name (lp-build vs lp-patch) before running the stage.
func (pt *Patcher) NeedsRebuild(in *netmodel.Instance, opts Options) bool {
	if pt.prob == nil || pt.opts != opts {
		return true
	}
	if !opts.FixedShape {
		return true // patching relies on the pinned pattern
	}
	S, R, D := in.Dims()
	return pt.s != S || pt.r != R || pt.d != D
}

// Sync makes the patcher's Problem semantically identical to a fresh
// Build(in, opts): a full Build when NeedsRebuild, otherwise in-place
// patches of the cells listed in dirty (plus a fanout value-diff). The
// returned Problem has its CSC cache fresh either way.
func (pt *Patcher) Sync(in *netmodel.Instance, opts Options, dirty *netmodel.DirtySet) (*lp.Problem, *VarMap, PatchStats) {
	pt.Syncs++
	if pt.NeedsRebuild(in, opts) {
		pt.rebuild(in, opts)
		return pt.prob, pt.vm, PatchStats{Rebuilt: true}
	}
	st := PatchStats{}
	pt.patchFanout(in, &st)
	if dirty != nil {
		pt.patchObjective(in, dirty, &st)
		pt.patchCoverings(in, dirty, &st)
		pt.patchWeights(in, dirty, &st)
	}
	return pt.prob, pt.vm, st
}

// rebuild performs the full Build and records the layout and shadows.
func (pt *Patcher) rebuild(in *netmodel.Instance, opts Options) {
	pt.prob, pt.vm = Build(in, opts)
	pt.prob.Precompute()
	pt.s, pt.r, pt.d = in.Dims()
	pt.opts = opts
	pt.Builds++

	// Row layout mirrors Build's emission order:
	//   (1) S*R rows, (2) R*D rows, (3) R rows,
	//   (4) kCount rows per reflector when CuttingPlane (only nonempty
	//       commodities get a row — commodity assignment never changes),
	//   (5) D rows under FixedShape, then (8)/(9) (never patched).
	S, R, D := pt.s, pt.r, pt.d
	pt.base3 = S*R + R*D
	pt.byCommodity = in.SinksOfCommodity()
	pt.kRank = make([]int, S)
	pt.kCount = 0
	for k := 0; k < S; k++ {
		if len(pt.byCommodity[k]) == 0 {
			pt.kRank[k] = -1
			continue
		}
		pt.kRank[k] = pt.kCount
		pt.kCount++
	}
	pt.base5 = pt.base3 + R
	if opts.CuttingPlane {
		pt.base5 += R * pt.kCount
	}
	pt.posInK = make([]int, D)
	for _, sinks := range pt.byCommodity {
		for pos, j := range sinks {
			pt.posInK[j] = pos
		}
	}
	pt.fanout = append(pt.fanout[:0], in.Fanout...)
}

// patchFanout value-diffs the fanout shadow and rewrites the -F_i
// coefficients of constraint (3) and every cutting plane (4) of a changed
// reflector.
func (pt *Patcher) patchFanout(in *netmodel.Instance, st *PatchStats) {
	for i, f := range in.Fanout {
		if f == pt.fanout[i] {
			continue
		}
		pt.fanout[i] = f
		// Row (3)_i: D sink coefficients then the z_i coefficient.
		if pt.prob.SetRowCoef(pt.base3+i, pt.d, -f) {
			st.Coefs++
		}
		if pt.opts.CuttingPlane {
			for k := 0; k < pt.s; k++ {
				rank := pt.kRank[k]
				if rank < 0 {
					continue
				}
				// Row (4)_{i,k}: the sinks of k, then the y^k_i coefficient.
				r := pt.base3 + pt.r + i*pt.kCount + rank
				if pt.prob.SetRowCoef(r, len(pt.byCommodity[k]), -f) {
					st.Coefs++
				}
			}
		}
	}
}

// patchWeights rewrites the fanout-load coefficients of demand units whose
// UnitWeight changed (the aggregation layer's dirty category): unit j's cell
// in constraint (3) of every reflector, and its cell in the commodity's
// cutting plane (4) when present.
func (pt *Patcher) patchWeights(in *netmodel.Instance, dirty *netmodel.DirtySet, st *PatchStats) {
	for _, j := range dirty.SinkWeight {
		load := in.UnitLoad(j)
		k := in.Commodity[j]
		rank := pt.kRank[k]
		for i := 0; i < pt.r; i++ {
			// Row (3)_i: D sink coefficients then the z_i coefficient.
			if pt.prob.SetRowCoef(pt.base3+i, j, load) {
				st.Coefs++
			}
			if pt.opts.CuttingPlane && rank >= 0 {
				r := pt.base3 + pt.r + i*pt.kCount + rank
				if pt.prob.SetRowCoef(r, pt.posInK[j], load) {
					st.Coefs++
				}
			}
		}
	}
}

// patchObjective rewrites the objective coefficients the dirty set lists,
// reading the (possibly stickiness-biased) values straight off the instance.
func (pt *Patcher) patchObjective(in *netmodel.Instance, dirty *netmodel.DirtySet, st *PatchStats) {
	setObj := func(j int, v float64) {
		if pt.prob.ObjectiveCoef(j) != v {
			pt.prob.SetObjectiveCoef(j, v)
			st.Obj++
		}
	}
	for _, i := range dirty.ReflectorCost {
		setObj(pt.vm.Z(i), in.ReflectorCost[i])
	}
	for _, a := range dirty.SrcRefCost {
		setObj(pt.vm.Y(a.A, a.B), in.SrcRefCost[a.A][a.B])
	}
	for _, a := range dirty.RefSinkCost {
		setObj(pt.vm.X(a.A, a.B), in.RefSinkCost[a.A][a.B])
	}
}

// patchCoverings refreshes the reliability covering rows (5): a changed
// threshold rewrites sink j's whole row (the demand caps every weight in
// it), a changed ref→sink loss rewrites one cell, and a changed src→ref
// loss rewrites that reflector's cell in every row of the commodity.
func (pt *Patcher) patchCoverings(in *netmodel.Instance, dirty *netmodel.DirtySet, st *PatchStats) {
	setCell := func(j, i int) {
		v := 0.0
		if in.Threshold[j] > 0 {
			v = in.CappedWeight(i, j)
		}
		if pt.prob.SetRowCoef(pt.base5+j, i, v) {
			st.Coefs++
		}
	}
	for _, j := range dirty.SinkDemand {
		r := pt.base5 + j
		if _, rhs := pt.prob.RHS(r); rhs != coveringRHS(in, j) {
			pt.prob.SetRHS(r, coveringRHS(in, j))
			st.RHS++
		}
		for i := 0; i < pt.r; i++ {
			setCell(j, i)
		}
	}
	for _, a := range dirty.RefSinkLoss {
		setCell(a.B, a.A)
	}
	for _, a := range dirty.SrcRefLoss {
		k, i := a.A, a.B
		for _, j := range pt.byCommodity[k] {
			setCell(j, i)
		}
	}
}
