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
package stround

import (
	"fmt"

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
}

type pairRec struct {
	refl, sink int
	w          float64
}

type boxRec struct {
	sink   int
	lo, hi float64
}

type pathVar struct {
	pair, box int
}

// Round runs the §6.5 stage on the fractional x̄ from the §3 rounding.
func Round(in *netmodel.Instance, xbar [][]float64, opts Options) (*Result, error) {
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

	// --- Level-3 pairs and level-4 boxes of the Figure-2 network. ---
	var pairs []pairRec
	pairsOfSink := make([][]int, D)
	for i := 0; i < R; i++ {
		for j := 0; j < D; j++ {
			if xbar[i][j] > 1e-12 {
				pairsOfSink[j] = append(pairsOfSink[j], len(pairs))
				pairs = append(pairs, pairRec{refl: i, sink: j, w: in.CappedWeight(i, j)})
			}
		}
	}
	var boxes []boxRec
	for j := 0; j < D; j++ {
		ws := make([]float64, 0, len(pairsOfSink[j]))
		xs := make([]float64, 0, len(pairsOfSink[j]))
		for _, pIdx := range pairsOfSink[j] {
			ws = append(ws, pairs[pIdx].w)
			xs = append(xs, xbar[pairs[pIdx].refl][j])
		}
		for _, b := range gapflow.BoxesForSink(ws, xs, j) {
			boxes = append(boxes, boxRec{sink: j, lo: b.Lo, hi: b.Hi})
		}
	}

	res0 := &Result{TotalBoxes: len(boxes), Serve: emptyServe(R, D)}
	if len(boxes) == 0 {
		return res0, nil
	}

	// --- Path variables g[p,b] for weight-compatible (pair, box). ---
	var vars []pathVar
	varsOfBox := make([][]int, len(boxes))
	varsOfPair := make([][]int, len(pairs))
	for b, bx := range boxes {
		for _, pIdx := range pairsOfSink[bx.sink] {
			p := pairs[pIdx]
			if p.w >= bx.lo-1e-12 && p.w <= bx.hi+1e-12 {
				vid := len(vars)
				vars = append(vars, pathVar{pair: pIdx, box: b})
				varsOfBox[b] = append(varsOfBox[b], vid)
				varsOfPair[pIdx] = append(varsOfPair[pIdx], vid)
			}
		}
	}

	build := func() *lp.Problem {
		p := lp.NewProblem(len(vars))
		for vid := range vars {
			p.SetBounds(vid, 0, 0.5) // pair→box edge capacity 1/2
		}
		// (ii) box demand rows: Σ g ≤ 1/2 (stage 1 maximizes coverage).
		for b := range boxes {
			coefs := make([]lp.Coef, 0, len(varsOfBox[b]))
			for _, vid := range varsOfBox[b] {
				coefs = append(coefs, lp.Coef{Var: vid, Val: 1})
			}
			p.AddConstraint(lp.LE, 0.5, coefs...)
		}
		// (i) pair capacity: level-3 node cap 1, tightened by §6.3
		// edge caps u_ij when present.
		for pIdx, pr := range pairs {
			capv := 1.0
			if in.EdgeCap != nil && in.EdgeCap[pr.refl][pr.sink] < capv {
				capv = in.EdgeCap[pr.refl][pr.sink]
			}
			if len(varsOfPair[pIdx]) == 0 {
				continue
			}
			coefs := make([]lp.Coef, 0, len(varsOfPair[pIdx]))
			for _, vid := range varsOfPair[pIdx] {
				coefs = append(coefs, lp.Coef{Var: vid, Val: 1})
			}
			p.AddConstraint(lp.LE, capv, coefs...)
		}
		// (i) fanout rows: bandwidth-weighted use of reflector i ≤ F_i.
		perRefl := make([][]lp.Coef, R)
		for pIdx, pr := range pairs {
			bw := in.UnitLoad(pr.sink)
			for _, vid := range varsOfPair[pIdx] {
				perRefl[pr.refl] = append(perRefl[pr.refl], lp.Coef{Var: vid, Val: bw})
			}
		}
		for i := 0; i < R; i++ {
			if len(perRefl[i]) > 0 {
				p.AddConstraint(lp.LE, in.Fanout[i], perRefl[i]...)
			}
		}
		// (iii) entangled sets: per (color, sink) cap 1 (§6.4).
		if in.Color != nil {
			for j := 0; j < D; j++ {
				perColor := make([][]lp.Coef, in.NumColors)
				for _, pIdx := range pairsOfSink[j] {
					c := in.Color[pairs[pIdx].refl]
					for _, vid := range varsOfPair[pIdx] {
						perColor[c] = append(perColor[c], lp.Coef{Var: vid, Val: 1})
					}
				}
				for _, coefs := range perColor {
					if len(coefs) > 1 {
						p.AddConstraint(lp.LE, 1, coefs...)
					}
				}
			}
		}
		return p
	}

	// Stage 1: maximize covered box mass under the true capacities.
	p1 := build()
	for vid := range vars {
		p1.SetObjectiveCoef(vid, -1)
	}
	sol1, err := p1.Solve()
	if err != nil {
		return nil, err
	}
	if sol1.Status != lp.Optimal {
		return nil, fmt.Errorf("stround: stage-1 LP status %v", sol1.Status)
	}
	coverage := -sol1.Objective

	// Stage 2: among maximum-coverage flows, minimize cost. It is the
	// stage-1 LP plus one coverage row that stage 1's optimum satisfies
	// with 1e-7 to spare, so it starts warm from that basis (see
	// solveStage2).
	p2 := build()
	for vid, v := range vars {
		pr := pairs[v.pair]
		p2.SetObjectiveCoef(vid, in.RefSinkCost[pr.refl][pr.sink])
	}
	covRow := make([]lp.Coef, len(vars))
	for vid := range vars {
		covRow[vid] = lp.Coef{Var: vid, Val: 1}
	}
	p2.AddConstraint(lp.GE, coverage-1e-7, covRow...)
	sol2, err := solveStage2(p2, sol1)
	if err != nil {
		return nil, err
	}
	if stage2Probe != nil {
		stage2Probe(p2, sol1, sol2)
	}
	if sol2.Status != lp.Optimal {
		return nil, fmt.Errorf("stround: stage-2 LP status %v", sol2.Status)
	}
	g := sol2.X
	fracCost := sol2.Objective

	// §6.5 preprocessing: eliminate paths costing more than 4X before
	// rounding (they alone would blow the cost bound).
	if fracCost > 0 {
		for vid, v := range vars {
			pr := pairs[v.pair]
			if g[vid] > 0 && in.RefSinkCost[pr.refl][pr.sink] > 4*fracCost {
				g[vid] = 0
			}
		}
	}

	// Dependent rounding with audit-and-retry.
	rng := stats.NewRNG(opts.Seed)
	var best *Result
	for attempt := 0; attempt <= opts.MaxRetries; attempt++ {
		res := sampleOnce(in, pairs, boxes, vars, varsOfBox, g, rng)
		res.FracCost = fracCost
		res.Retries = attempt
		if best == nil || better(res, best) {
			best = res
		}
		okCost := fracCost <= 0 || res.FinalCost <= opts.CostFactor*fracCost
		if okCost && res.MaxFanoutExcess <= opts.AdditiveSlack && float64(res.MaxColorExcess) <= opts.AdditiveSlack {
			return res, nil
		}
	}
	return best, nil
}

// solveStage2 solves the stage-2 LP p2 from stage 1's optimal basis with
// the coverage row's slack basic. That basis is primal feasible, so the
// solve runs phase 2 from stage 1's optimum instead of a crash basis and
// phase 1. A stage 1 that returned no basis (the solver's row-equilibrated
// rescue returns none) leaves stage 2 to solve cold.
func solveStage2(p2 *lp.Problem, sol1 *lp.Solution) (*lp.Solution, error) {
	return p2.SolveOpts(lp.Options{WarmStart: sol1.Basis.AppendSlackRow()})
}

// stage2Probe, when non-nil, sees every stage-2 solve Round makes: the
// problem, the stage-1 solution it started from and its result. Tests set
// it to check warm solves against cold ones on real pipeline calls.
var stage2Probe func(p2 *lp.Problem, sol1, sol2 *lp.Solution)

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

func sampleOnce(in *netmodel.Instance, pairs []pairRec, boxes []boxRec, vars []pathVar, varsOfBox [][]int, g []float64, rng *stats.RNG) *Result {
	_, R, D := in.Dims()
	res := &Result{TotalBoxes: len(boxes), Serve: emptyServe(R, D)}
	for b := range boxes {
		// Doubled flows 2g form a (sub-)distribution over incoming paths.
		u := rng.Float64()
		acc := 0.0
		chosen := -1
		for _, vid := range varsOfBox[b] {
			acc += 2 * g[vid]
			if u < acc {
				chosen = vid
				break
			}
		}
		if chosen < 0 {
			continue // box unserved: fractional coverage was < 1/2
		}
		p := pairs[vars[chosen].pair]
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
