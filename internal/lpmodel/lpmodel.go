// Package lpmodel builds the linear-programming relaxation of the paper's
// integer program (§2) from a netmodel.Instance, and maps solver vectors
// back into structured fractional solutions.
//
// Variable layout (exploiting the §2 WLOG that each sink demands exactly one
// commodity, so x^k_{ij} exists only for k = Commodity[j]):
//
//	z_i           i ∈ [0,R)              — build reflector i
//	y^k_i         k ∈ [0,S), i ∈ [0,R)   — stream k delivered to reflector i
//	x_{ij}        i ∈ [0,R), j ∈ [0,D)   — sink j served via reflector i
//
// Constraints (numbers follow the paper):
//
//	(1) y^k_i ≤ z_i
//	(2) x_{ij} ≤ y^{c(j)}_i
//	(3) Σ_j B^{c(j)} x_{ij} ≤ F_i z_i            (§6.1 form; B ≡ 1 by default)
//	(4) Σ_{j: c(j)=k} B^k x_{ij} ≤ F_i y^k_i     (the cutting plane)
//	(5) Σ_i x_{ij} w_{ij} ≥ W_j                  (reliability covering)
//	(7') x_{ij} ≤ u_{ij}                          (§6.3, as variable bounds)
//	(9) Σ_{i ∈ R_ℓ} x_{ij} ≤ 1   ∀j, ∀ color ℓ  (§6.4)
//	(10) Σ_{j ∈ g} x_{ij} ≤ u_{ig}  ∀i, ∀ multi-stream sink g — the native
//	     shared-arc capacity coupling the copy-split WLOG cannot express
package lpmodel

import (
	"errors"
	"fmt"

	"repro/internal/lp"
	"repro/internal/netmodel"
)

// ErrInfeasible is wrapped by SolveBuiltOpts/SolveLP when the LP relaxation has
// no feasible point. Callers that react to infeasibility structurally — the
// shard coordination pass grants a starved shard more reflector capacity and
// re-solves — match it with errors.Is instead of parsing messages.
var ErrInfeasible = errors.New("infeasible")

// Options selects model features.
type Options struct {
	// CuttingPlane includes constraint (4). The IP does not need it
	// (Claim 2.1) but the rounding analysis does; experiments can switch
	// it off to measure its effect.
	CuttingPlane bool
	// Colors includes constraints (9) when the instance has colors.
	Colors bool
	// EdgeCaps applies §6.3 capacities as upper bounds on x when the
	// instance has them.
	EdgeCaps bool
	// Integral restricts variables to {0,1}; used only by the
	// branch-and-bound solver, which adds the integrality by branching
	// (the LP itself stays continuous).
	Integral bool
	// FixedShape emits the reliability covering row (5) for every sink,
	// including zero-demand (inactive) ones, whose rows degenerate to the
	// trivially satisfied 0 ≥ 0 (their coefficients are structural zeros,
	// arithmetic no-ops for the simplex). This pins both the LP shape AND
	// the constraint-matrix sparsity pattern to the instance dimensions
	// alone, so a simplex basis stays warm-start compatible across sink
	// join/leave churn and a Patcher can refresh coefficients in place
	// (the live engine's workload). Off by default: static solves skip the
	// dead rows.
	FixedShape bool
}

// DefaultOptions enables every feature present in the instance.
func DefaultOptions(in *netmodel.Instance) Options {
	return Options{
		CuttingPlane: true,
		Colors:       in.Color != nil,
		EdgeCaps:     in.EdgeCap != nil,
	}
}

// VarMap locates structured variables inside the flat LP vector.
type VarMap struct {
	S, R, D int
	// ZOff + i
	ZOff int
	// YOff + k*R + i
	YOff int
	// XOff + i*D + j
	XOff int
	// Total variable count.
	N int
}

// Z returns the index of z_i.
func (m *VarMap) Z(i int) int { return m.ZOff + i }

// Y returns the index of y^k_i.
func (m *VarMap) Y(k, i int) int { return m.YOff + k*m.R + i }

// X returns the index of x_{ij}.
func (m *VarMap) X(i, j int) int { return m.XOff + i*m.D + j }

// CapRow returns the LP row index of reflector i's fanout-capacity
// constraint (3). Build emits rows in a fixed order — the S·R rows of (1),
// the R·D rows of (2), then the R capacity rows — so the index is pure
// arithmetic and holds for every Options combination (the optional row
// families all come after). FracSolution.CapDuals reads its shadow prices
// off exactly these rows.
func (m *VarMap) CapRow(i int) int { return m.S*m.R + m.R*m.D + i }

// NewVarMap lays out variables for an instance.
func NewVarMap(in *netmodel.Instance) *VarMap {
	S, R, D := in.Dims()
	m := &VarMap{S: S, R: R, D: D}
	m.ZOff = 0
	m.YOff = R
	m.XOff = R + S*R
	m.N = R + S*R + R*D
	return m
}

// Build constructs the LP relaxation. The returned problem minimizes the §2
// objective over [0,1] variables.
func Build(in *netmodel.Instance, opts Options) (*lp.Problem, *VarMap) {
	S, R, D := in.Dims()
	m := NewVarMap(in)
	p := lp.NewProblem(m.N)

	// Objective and bounds.
	for i := 0; i < R; i++ {
		p.SetObjectiveCoef(m.Z(i), in.ReflectorCost[i])
		p.SetBounds(m.Z(i), 0, 1)
	}
	for k := 0; k < S; k++ {
		for i := 0; i < R; i++ {
			p.SetObjectiveCoef(m.Y(k, i), in.SrcRefCost[k][i])
			p.SetBounds(m.Y(k, i), 0, 1)
		}
	}
	for i := 0; i < R; i++ {
		for j := 0; j < D; j++ {
			p.SetObjectiveCoef(m.X(i, j), in.RefSinkCost[i][j])
			hi := 1.0
			if opts.EdgeCaps && in.EdgeCap != nil && in.EdgeCap[i][j] < 1 {
				hi = in.EdgeCap[i][j]
			}
			p.SetBounds(m.X(i, j), 0, hi)
		}
	}

	// (1) y ≤ z.
	for k := 0; k < S; k++ {
		for i := 0; i < R; i++ {
			p.AddConstraint(lp.LE, 0, lp.Coef{Var: m.Y(k, i), Val: 1}, lp.Coef{Var: m.Z(i), Val: -1})
		}
	}
	// (2) x ≤ y.
	for i := 0; i < R; i++ {
		for j := 0; j < D; j++ {
			p.AddConstraint(lp.LE, 0,
				lp.Coef{Var: m.X(i, j), Val: 1},
				lp.Coef{Var: m.Y(in.Commodity[j], i), Val: -1})
		}
	}
	// (3) Σ_j w_j B x ≤ F_i z_i — per-unit loads, so a weighted aggregate
	// (internal/agg) reserves fanout for every member behind the unit.
	for i := 0; i < R; i++ {
		coefs := make([]lp.Coef, 0, D+1)
		for j := 0; j < D; j++ {
			coefs = append(coefs, lp.Coef{Var: m.X(i, j), Val: in.UnitLoad(j)})
		}
		coefs = append(coefs, lp.Coef{Var: m.Z(i), Val: -in.Fanout[i]})
		p.AddConstraint(lp.LE, 0, coefs...)
	}
	// (4) per-commodity cutting plane.
	if opts.CuttingPlane {
		byCommodity := in.SinksOfCommodity()
		for i := 0; i < R; i++ {
			for k := 0; k < S; k++ {
				sinks := byCommodity[k]
				if len(sinks) == 0 {
					continue
				}
				coefs := make([]lp.Coef, 0, len(sinks)+1)
				for _, j := range sinks {
					coefs = append(coefs, lp.Coef{Var: m.X(i, j), Val: in.UnitLoad(j)})
				}
				coefs = append(coefs, lp.Coef{Var: m.Y(k, i), Val: -in.Fanout[i]})
				p.AddConstraint(lp.LE, 0, coefs...)
			}
		}
	}
	// (5) reliability covering with capped weights. Under FixedShape the
	// SPARSITY PATTERN is pinned too, not just the row count: every sink's
	// row carries all R coefficients, with structural zeros (arithmetic
	// no-ops for the simplex) standing in for inactive sinks. Sink
	// join/leave churn then changes coefficient VALUES only, which is what
	// lets the Patcher refresh the shared CSC in place instead of
	// rebuilding it.
	for j := 0; j < D; j++ {
		if opts.FixedShape {
			p.AddConstraint(lp.GE, coveringRHS(in, j), coveringCoefs(in, m, j)...)
			continue
		}
		if in.Threshold[j] <= 0 {
			continue
		}
		coefs := make([]lp.Coef, 0, R)
		for i := 0; i < R; i++ {
			w := in.CappedWeight(i, j)
			if w > 0 {
				coefs = append(coefs, lp.Coef{Var: m.X(i, j), Val: w})
			}
		}
		p.AddConstraint(lp.GE, in.Demand(j), coefs...)
	}
	// (8) §6.2 ingest caps: Σ_k y^k_i ≤ u_i. Kept in the LP (the
	// fractional optimum respects it); the rounding can only promise an
	// O(log n) violation, which the audit reports.
	if in.IngestCap != nil {
		for i := 0; i < R; i++ {
			coefs := make([]lp.Coef, 0, S)
			for k := 0; k < S; k++ {
				coefs = append(coefs, lp.Coef{Var: m.Y(k, i), Val: 1})
			}
			p.AddConstraint(lp.LE, in.IngestCap[i], coefs...)
		}
	}
	// (9) color constraints.
	if opts.Colors && in.Color != nil {
		byColor := make([][]int, in.NumColors)
		for i := 0; i < R; i++ {
			byColor[in.Color[i]] = append(byColor[in.Color[i]], i)
		}
		for j := 0; j < D; j++ {
			for _, group := range byColor {
				if len(group) < 2 {
					continue // a singleton group can never violate (9)
				}
				coefs := make([]lp.Coef, 0, len(group))
				for _, i := range group {
					coefs = append(coefs, lp.Coef{Var: m.X(i, j), Val: 1})
				}
				p.AddConstraint(lp.LE, 1, coefs...)
			}
		}
	}
	// (10) shared physical-arc capacity for multi-stream sinks: a §6.3 cap
	// u_{ij} is a property of the reflector→sink ARC, so a viewer's streams
	// share it — Σ_{j ∈ viewer g} x_{ij} ≤ u_{ig}. This is the one
	// constraint the paper's copy-split WLOG cannot express (each copy gets
	// a private cap); SplitStreams documents the weakening and the golden
	// tests pin both the equivalence without edge caps and the strict gap
	// with them. Emitted last so the Patcher's row layout for (1)–(5) is
	// unaffected; the rows themselves are static (deltas never edit caps).
	if opts.EdgeCaps && in.EdgeCap != nil && in.MultiStream() {
		for _, units := range in.ViewerUnits() {
			if len(units) < 2 {
				continue
			}
			for i := 0; i < R; i++ {
				cap := in.EdgeCap[i][units[0]] // constant across the viewer (validated)
				if cap >= float64(len(units)) {
					continue // cannot bind: each x is in [0,1]
				}
				coefs := make([]lp.Coef, 0, len(units))
				for _, j := range units {
					coefs = append(coefs, lp.Coef{Var: m.X(i, j), Val: 1})
				}
				p.AddConstraint(lp.LE, cap, coefs...)
			}
		}
	}
	return p, m
}

// coveringRHS returns the right-hand side of sink j's fixed-shape covering
// row: the weight demand W_j for active sinks, 0 (trivially satisfied) for
// inactive ones.
func coveringRHS(in *netmodel.Instance, j int) float64 {
	if in.Threshold[j] <= 0 {
		return 0
	}
	return in.Demand(j)
}

// coveringCoefs fills sink j's fixed-shape covering row: position i always
// holds variable X(i,j), with value CappedWeight(i,j) when the sink is
// active and 0 otherwise. The Patcher relies on this positional layout
// (patchCoverings rewrites cell i of row j in place through SetRowCoef).
func coveringCoefs(in *netmodel.Instance, m *VarMap, j int) []lp.Coef {
	R := m.R
	coefs := make([]lp.Coef, R)
	active := in.Threshold[j] > 0
	for i := 0; i < R; i++ {
		v := 0.0
		if active {
			v = in.CappedWeight(i, j)
		}
		coefs[i] = lp.Coef{Var: m.X(i, j), Val: v}
	}
	return coefs
}

// FracSolution is a structured fractional solution of the LP relaxation.
type FracSolution struct {
	Z    []float64   // ẑ_i
	Y    [][]float64 // ŷ[k][i]
	X    [][]float64 // x̂[i][j]
	Cost float64
	// Iterations reports simplex pivots (diagnostic for T7).
	Iterations int
	// Basis is the final simplex basis; feed it to lp.Options.WarmStart
	// (SolveBuiltOpts) to accelerate a re-solve of a same-shaped model.
	Basis *lp.Basis
	// Stats counts solver factorization events (refactorizations, adopted
	// factorizations, warm fallbacks) for the epoch telemetry.
	Stats lp.SolveStats
	// CapDuals[i] is the shadow price of reflector i's capacity row (3) at
	// the optimum: the rate of change of the optimal cost per unit of the
	// row's rhs, ≤ 0 when the capacity binds (relaxing it helps a
	// minimization) and 0 when it is slack.
	CapDuals []float64
}

// Unpack converts a flat LP vector into a FracSolution.
func Unpack(in *netmodel.Instance, m *VarMap, x []float64, obj float64, iters int) *FracSolution {
	S, R, D := in.Dims()
	fs := &FracSolution{Cost: obj, Iterations: iters}
	fs.Z = make([]float64, R)
	for i := 0; i < R; i++ {
		fs.Z[i] = clamp01(x[m.Z(i)])
	}
	fs.Y = make([][]float64, S)
	for k := 0; k < S; k++ {
		fs.Y[k] = make([]float64, R)
		for i := 0; i < R; i++ {
			fs.Y[k][i] = clamp01(x[m.Y(k, i)])
		}
	}
	fs.X = make([][]float64, R)
	for i := 0; i < R; i++ {
		fs.X[i] = make([]float64, D)
		for j := 0; j < D; j++ {
			fs.X[i][j] = clamp01(x[m.X(i, j)])
		}
	}
	return fs
}

// SolveBuiltOpts exactly solves an already-built relaxation of in (from
// Build) under the solver options sopts (warm start, refactorize-on-install,
// solver event hook) and unpacks the optimum. Callers that need the Problem
// itself — for row/variable counts, bound mutation or a warm re-solve — build
// once and solve here; SolveLP wraps the common cold build-and-solve.
func SolveBuiltOpts(in *netmodel.Instance, p *lp.Problem, m *VarMap, sopts lp.Options) (*FracSolution, error) {
	sol, err := p.SolveOpts(sopts)
	if err != nil {
		return nil, err
	}
	switch sol.Status {
	case lp.Optimal:
	case lp.Infeasible:
		return nil, fmt.Errorf("lpmodel: LP relaxation %w (some sink cannot meet its threshold with the available reflector capacity)", ErrInfeasible)
	default:
		return nil, fmt.Errorf("lpmodel: LP solve ended with status %v", sol.Status)
	}
	fs := Unpack(in, m, sol.X, sol.Objective, sol.Iterations)
	fs.Basis = sol.Basis
	fs.Stats = sol.Stats
	rows := make([]int, m.R)
	for i := range rows {
		rows[i] = m.CapRow(i)
	}
	fs.CapDuals = sol.DualsFor(rows)
	return fs, nil
}

// SolveLP builds and exactly solves the LP relaxation from a cold start.
func SolveLP(in *netmodel.Instance, opts Options) (*FracSolution, error) {
	p, m := Build(in, opts)
	return SolveBuiltOpts(in, p, m, lp.Options{})
}

// Cost evaluates the §2 objective for a structured fractional solution.
func (fs *FracSolution) CostOf(in *netmodel.Instance) float64 {
	total := 0.0
	for i, z := range fs.Z {
		total += in.ReflectorCost[i] * z
	}
	for k := range fs.Y {
		for i, y := range fs.Y[k] {
			total += in.SrcRefCost[k][i] * y
		}
	}
	for i := range fs.X {
		for j, x := range fs.X[i] {
			total += in.RefSinkCost[i][j] * x
		}
	}
	return total
}

func clamp01(v float64) float64 {
	if v < 0 {
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}
