// Package bnb is an exact branch-and-bound solver for the §2 integer
// program, using the LP relaxation (internal/lpmodel) for lower bounds. It
// is exponential in the worst case and intended for the tiny instances of
// experiment T1, where it supplies the true OPT that the approximation
// ratios are measured against.
package bnb

import (
	"math"

	"repro/internal/lp"
	"repro/internal/lpmodel"
	"repro/internal/netmodel"
)

// Options bounds the search.
type Options struct {
	// NodeLimit caps explored nodes (default 200_000).
	NodeLimit int
	// InitialUpper primes the incumbent with a known feasible cost
	// (e.g. from greedy); 0 means +Inf.
	InitialUpper float64
	// Gap: prune nodes whose LP bound is within Gap of the incumbent
	// (default 1e-6, i.e. prove optimality).
	Gap float64
	// ColdLP disables warm-starting child LPs from the parent basis
	// (ablation/diagnostics; the warm dive is strictly an optimization,
	// results are identical).
	ColdLP bool
}

// Result reports the search outcome.
type Result struct {
	Design *netmodel.Design
	Cost   float64
	// Optimal is true when the search finished within the node limit, so
	// Cost is the exact IP optimum.
	Optimal bool
	Nodes   int
	// LPIterations totals simplex pivots across all node LPs (the warm
	// dive's effectiveness shows up here).
	LPIterations int
}

const intTol = 1e-6

// Solve runs branch and bound. It returns a nil Design if no feasible
// integral solution was found (within the node limit).
func Solve(in *netmodel.Instance, opts Options) (*Result, error) {
	if opts.NodeLimit <= 0 {
		opts.NodeLimit = 200000
	}
	if opts.Gap <= 0 {
		opts.Gap = 1e-6
	}
	lpOpts := lpmodel.DefaultOptions()
	// The cutting plane (4) is implied for the IP (Claim 2.1) but
	// tightens LP bounds, so keep it.
	prob, vm := lpmodel.Build(in, lpOpts)

	best := math.Inf(1)
	if opts.InitialUpper > 0 {
		best = opts.InitialUpper
	}
	var bestX []float64
	res := &Result{}

	// Each node's LP warm-starts from its parent's optimal basis: costs
	// are unchanged down a dive and only one variable's bounds tighten,
	// so the parent basis stays dual feasible and the dual simplex
	// re-establishes primal feasibility in a few pivots instead of
	// re-running both phases from scratch.
	var dfs func(parentBasis *lp.Basis) bool
	dfs = func(parentBasis *lp.Basis) bool {
		if res.Nodes >= opts.NodeLimit {
			return false
		}
		res.Nodes++
		var warm *lp.Basis
		if !opts.ColdLP {
			warm = parentBasis
		}
		sol, err := prob.SolveOpts(lp.Options{WarmStart: warm})
		if sol != nil {
			res.LPIterations += sol.Iterations
		}
		if err != nil || sol.Status == lp.Infeasible {
			return true
		}
		if sol.Status != lp.Optimal {
			return true // numerically stuck subtree; sound to prune only
			// if bound unusable — treat as pruned but mark incomplete
		}
		if sol.Objective >= best-opts.Gap {
			return true
		}
		// Find most fractional variable.
		branchVar, dist := -1, intTol
		for jv := 0; jv < prob.NumVars(); jv++ {
			v := sol.X[jv]
			f := math.Abs(v - math.Round(v))
			if f > dist {
				dist = f
				branchVar = jv
			}
		}
		if branchVar < 0 {
			// An integral solution: new incumbent.
			if sol.Objective < best {
				best = sol.Objective
				bestX = append(bestX[:0], sol.X...)
			}
			return true
		}
		// Branch: try the 1-side first (covering problems tend to find
		// feasible incumbents faster there). Bounds are saved and
		// restored so §6.3 edge-cap upper bounds survive branching.
		origLo, origHi := prob.Bounds(branchVar)
		complete := true
		for _, side := range [2]float64{1, 0} {
			if side < origLo || side > origHi {
				continue
			}
			prob.SetBounds(branchVar, side, side)
			if !dfs(sol.Basis) {
				complete = false
			}
			prob.SetBounds(branchVar, origLo, origHi)
			if res.Nodes >= opts.NodeLimit {
				complete = false
				break
			}
		}
		return complete
	}
	complete := dfs(nil)

	if bestX == nil {
		res.Optimal = false
		return res, nil
	}
	res.Cost = best
	res.Optimal = complete
	res.Design = designFromVector(in, vm, bestX)
	return res, nil
}

// designFromVector converts a 0/1 LP vector into a Design.
func designFromVector(in *netmodel.Instance, vm *lpmodel.VarMap, x []float64) *netmodel.Design {
	S, R, D := in.Dims()
	d := netmodel.NewDesign(in)
	for i := 0; i < R; i++ {
		d.Build[i] = x[vm.Z(i)] > 0.5
	}
	for k := 0; k < S; k++ {
		for i := 0; i < R; i++ {
			d.Ingest[k][i] = x[vm.Y(k, i)] > 0.5
		}
	}
	for i := 0; i < R; i++ {
		for j := 0; j < D; j++ {
			d.Serve[i][j] = x[vm.X(i, j)] > 0.5
		}
	}
	d.Normalize(in)
	return d
}
