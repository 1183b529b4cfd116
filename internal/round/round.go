// Package round implements the randomized rounding procedure of §3 of the
// paper, taking a fractional LP solution (ẑ, ŷ, x̂) to a partially-rounded
// solution (z̄, ȳ, x̄) in which z and y are 0/1 and only x remains
// fractional (values 0, x̂, or 1/(c·ln n)).
//
// The procedure, with multiplier λ = c·ln n (floored at 1; c = DefaultC =
// 64 unless a caller sets another):
//
//	[1] ż_i   = min(ẑ_i·λ, 1)
//	[2] ẏ^k_i = min(ŷ^k_i·λ / ż_i, 1)
//	[3] z̄_i = 1 with probability ż_i
//	[4] if z̄_i = 1: ȳ^k_i = 1 with probability ẏ^k_i
//	[5] if ż_i = ẏ^k_i = 1: x̄ = x̂ (deterministic);
//	    else if ȳ^k_i = 1:  x̄ = 1/λ with probability x̂/ŷ
//	[6] everything else 0
//
// Lemma 4.1 bounds the expected cost by λ·LP; Lemma 4.3 shows each weight
// constraint retains a (1−δ) fraction w.h.p.; Lemma 4.6 bounds fanout
// violation by 2 w.h.p. for c ≥ 24. The Instrumentation struct reports the
// empirically realized factors so the experiment suite can validate all
// three lemmas.
package round

import (
	"math"

	"repro/internal/lpmodel"
	"repro/internal/netmodel"
	"repro/internal/stats"
)

// DefaultC is the paper's constant c: 64 gives the δ = 1/4 weight
// guarantee of Lemma 4.3 (Lemma 4.6 needs only c ≥ 24).
const DefaultC = 64

// minMultiplier floors λ = c·ln n. On tiny instances λ could fall below 1;
// the floor keeps the procedure from shrinking values without changing
// the asymptotics.
const minMultiplier = 1

// Options configures the rounding.
type Options struct {
	// C is the paper's constant c; 0 takes DefaultC. Experiments sweep it
	// (the c / δ trade-off) and run the randomization regime at C = 1.
	C float64
	// Seed drives the coin flips.
	Seed uint64
}

// DefaultOptions returns the paper's constants (c = DefaultC).
func DefaultOptions(seed uint64) Options {
	return Options{C: DefaultC, Seed: seed}
}

// Rounded is the outcome of the §3 procedure.
type Rounded struct {
	ZBar []bool      // z̄_i
	YBar [][]bool    // ȳ[k][i]
	XBar [][]float64 // x̄[i][j]: 0, x̂, or 1/λ
	// Lambda is the multiplier c·ln n actually used.
	Lambda float64
	// Cost of the partially rounded solution (z̄,ȳ at integral cost, x̄
	// at fractional cost).
	Cost float64
}

// Instrumentation quantifies how the rounded solution compares with the
// guarantees of Lemmas 4.1/4.3/4.6.
type Instrumentation struct {
	// CostRatioVsLP = Cost / LP objective (Lemma 4.1 predicts ≤ λ in
	// expectation).
	CostRatioVsLP float64
	// MinWeightFactor = min_j (Σ_i w_ij x̄_ij) / W_j over demanding sinks
	// (Lemma 4.3 predicts ≥ 3/4 w.h.p. at c=64).
	MinWeightFactor float64
	// MaxFanoutFactor = max_i (Σ_j B_j x̄_ij) / F_i (Lemma 4.6 predicts
	// ≤ 2 w.h.p. at c ≥ 24).
	MaxFanoutFactor float64
	// WeightViolations counts sinks below (1-δ)W with δ = 1/4.
	WeightViolations int
	// FanoutViolations counts reflectors above 2F.
	FanoutViolations int
	// MaxIngestExcess is the §6.2 constraint-(8) violation after
	// rounding: max over reflectors of (#streams with ȳ=1) − u_i.
	// The §6.2 hardness result says O(log n) violation is the best any
	// rounding can promise; Lemma-4.1-style scaling bounds it by λ·u_i
	// in expectation.
	MaxIngestExcess float64
}

// Apply runs the §3 procedure on a fractional solution.
func Apply(in *netmodel.Instance, fs *lpmodel.FracSolution, opts Options) *Rounded {
	S, R, D := in.Dims()
	if opts.C == 0 {
		opts.C = DefaultC
	}
	lambda := max(opts.C*math.Log(float64(D)), minMultiplier)
	rng := stats.NewRNG(opts.Seed)

	r := &Rounded{
		ZBar:   make([]bool, R),
		YBar:   make([][]bool, S),
		XBar:   make([][]float64, R),
		Lambda: lambda,
	}
	for k := 0; k < S; k++ {
		r.YBar[k] = make([]bool, R)
	}
	for i := 0; i < R; i++ {
		r.XBar[i] = make([]float64, D)
	}

	// Steps [1]-[4]: scaled coin flips for z and y.
	zDot := make([]float64, R)
	yDot := make([][]float64, S)
	for k := range yDot {
		yDot[k] = make([]float64, R)
	}
	for i := 0; i < R; i++ {
		zDot[i] = math.Min(fs.Z[i]*lambda, 1)
		r.ZBar[i] = zDot[i] > 0 && rng.Bernoulli(zDot[i])
		for k := 0; k < S; k++ {
			if zDot[i] <= 0 {
				continue // ŷ ≤ ẑ = 0 forces ẏ = 0
			}
			yDot[k][i] = math.Min(fs.Y[k][i]*lambda/zDot[i], 1)
			if r.ZBar[i] && yDot[k][i] > 0 && rng.Bernoulli(yDot[k][i]) {
				r.YBar[k][i] = true
			}
		}
	}
	// Step [5]: x̄.
	for i := 0; i < R; i++ {
		for j := 0; j < D; j++ {
			xh := fs.X[i][j]
			if xh <= 0 {
				continue
			}
			k := in.Commodity[j]
			yh := fs.Y[k][i]
			if zDot[i] >= 1 && yDot[k][i] >= 1 {
				// Deterministic branch: the scaled solution is
				// already saturated here; keep x̂ fractional.
				r.XBar[i][j] = xh
				continue
			}
			if r.YBar[k][i] && yh > 0 {
				p := xh / yh
				if p > 1 {
					p = 1 // x̂ ≤ ŷ up to LP tolerance
				}
				if rng.Bernoulli(p) {
					r.XBar[i][j] = 1 / lambda
				}
			}
		}
	}
	r.Cost = r.costOf(in)
	return r
}

func (r *Rounded) costOf(in *netmodel.Instance) float64 {
	total := 0.0
	for i, b := range r.ZBar {
		if b {
			total += in.ReflectorCost[i]
		}
	}
	for k := range r.YBar {
		for i, b := range r.YBar[k] {
			if b {
				total += in.SrcRefCost[k][i]
			}
		}
	}
	for i := range r.XBar {
		for j, x := range r.XBar[i] {
			if x > 0 {
				total += in.RefSinkCost[i][j] * x
			}
		}
	}
	return total
}

// Instrument measures the realized quality of the rounding against the
// lemmas' predictions. lpCost is the LP optimum (denominator of Lemma 4.1).
func (r *Rounded) Instrument(in *netmodel.Instance, lpCost float64) Instrumentation {
	_, R, D := in.Dims()
	inst := Instrumentation{MinWeightFactor: math.Inf(1)}
	if lpCost > 0 {
		inst.CostRatioVsLP = r.Cost / lpCost
	}
	for j := 0; j < D; j++ {
		if in.Threshold[j] <= 0 {
			continue
		}
		got := 0.0
		for i := 0; i < R; i++ {
			if r.XBar[i][j] > 0 {
				got += in.CappedWeight(i, j) * r.XBar[i][j]
			}
		}
		f := got / in.Demand(j)
		if f < inst.MinWeightFactor {
			inst.MinWeightFactor = f
		}
		if f < 0.75-1e-9 {
			inst.WeightViolations++
		}
	}
	if math.IsInf(inst.MinWeightFactor, 1) {
		inst.MinWeightFactor = 1
	}
	for i := 0; i < R; i++ {
		use := 0.0
		for j := 0; j < D; j++ {
			if r.XBar[i][j] > 0 {
				use += in.UnitLoad(j) * r.XBar[i][j]
			}
		}
		if use == 0 {
			continue
		}
		f := math.Inf(1)
		if in.Fanout[i] > 0 {
			f = use / in.Fanout[i]
		}
		if f > inst.MaxFanoutFactor {
			inst.MaxFanoutFactor = f
		}
		if f > 2+1e-9 {
			inst.FanoutViolations++
		}
	}
	if in.IngestCap != nil {
		for i := 0; i < R; i++ {
			streams := 0.0
			for k := range r.YBar {
				if r.YBar[k][i] {
					streams++
				}
			}
			if ex := streams - in.IngestCap[i]; ex > inst.MaxIngestExcess {
				inst.MaxIngestExcess = ex
			}
		}
	}
	return inst
}
