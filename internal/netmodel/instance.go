// Package netmodel defines the 3-level overlay network model of the paper
// (Figure 1): sources (entrypoints) S, reflectors R, and sinks (edgeservers)
// D, with per-edge loss probabilities and costs, reflector build costs and
// fanouts, and per-sink success-probability demands. It also defines the
// integral Design produced by the solvers and the audit machinery that
// checks a design against every constraint of the IP in §2.
//
// Following §2 of the paper, each demand unit (column of the sink axis)
// demands exactly one commodity, and commodity k originates at source k, so
// the number of commodities equals |S|. A sink wanting several streams is
// no longer split into anonymous copies: SinkOf groups its units into one
// first-class multi-stream sink (see multistream.go), and SplitStreams
// recovers the paper's copy-split form when the WLOG view is wanted.
package netmodel

import (
	"errors"
	"fmt"
	"math"
)

// ProbEps is the clamp applied to probabilities before log transforms so
// that weights stay finite: probabilities are confined to [ProbEps, 1-ProbEps].
const ProbEps = 1e-12

// Instance is a complete problem instance: the tripartite digraph with
// costs, loss probabilities, fanout constraints and demands, plus the
// optional extension data of §6 (bandwidths, reflector–sink capacities,
// ISP colors).
type Instance struct {
	Name string `json:"name"`

	// Core sizes. Commodity k originates at source k, so NumSources is
	// also the number of commodities (u in the paper).
	NumSources    int `json:"num_sources"`
	NumReflectors int `json:"num_reflectors"`
	NumSinks      int `json:"num_sinks"`

	// ReflectorCost[i] is r_i, the cost of building reflector i.
	ReflectorCost []float64 `json:"reflector_cost"`
	// Fanout[i] is F_i, the maximum number of outgoing streams reflector
	// i can support (in bandwidth units when Bandwidth is set).
	Fanout []float64 `json:"fanout"`

	// SrcRefLoss[k][i] is p_{ki}: probability a packet of commodity k is
	// lost on the source_k -> reflector_i link.
	SrcRefLoss [][]float64 `json:"src_ref_loss"`
	// RefSinkLoss[i][j] is p_{ij}: loss probability on reflector_i ->
	// sink_j.
	RefSinkLoss [][]float64 `json:"ref_sink_loss"`

	// SrcRefCost[k][i] is c^k_{ki}: cost of forwarding stream k from its
	// source to reflector i (the y^k_i term of the objective).
	SrcRefCost [][]float64 `json:"src_ref_cost"`
	// RefSinkCost[i][j] is c^k_{ij} for k = Commodity[j]: cost of serving
	// sink j from reflector i (the x^k_{ij} term). Because each sink
	// demands a single commodity, a 2-D matrix fully captures the
	// per-commodity edge costs of the paper.
	RefSinkCost [][]float64 `json:"ref_sink_cost"`

	// Commodity[j] is the stream demanded by sink j (index into sources).
	Commodity []int `json:"commodity"`
	// Threshold[j] is Φ^k_j: the minimum success probability with which
	// sink j must receive its stream.
	Threshold []float64 `json:"threshold"`

	// --- Extensions (§6) ---

	// Bandwidth[k] is B^k of §6.1: the bandwidth one copy of stream k
	// consumes at a reflector. Nil means every stream weighs 1 unit.
	Bandwidth []float64 `json:"bandwidth,omitempty"`
	// EdgeCap[i][j] is u_{ij} of §6.3: a capacity on the reflector_i ->
	// sink_j arc. Nil means uncapacitated. With one commodity per sink
	// the constraint Σ_k x^k_{ij} ≤ u_{ij} binds only at u_{ij} < 1, i.e.
	// it forbids the arc; values ≥ 1 are inert but carried for fidelity.
	EdgeCap [][]float64 `json:"edge_cap,omitempty"`
	// Color[i] is the ISP group of reflector i (§6.4). NumColors is the
	// number of groups m; Color nil means no color constraints.
	Color     []int `json:"color,omitempty"`
	NumColors int   `json:"num_colors,omitempty"`
	// IngestCap[i] is u_i of §6.2 constraint (8): a cap on how many
	// distinct streams reflector i may ingest (Σ_k y^k_i ≤ u_i). Nil
	// means uncapacitated. §6.2 proves no rounding can guarantee better
	// than an O(log n) violation of this constraint (else set cover
	// would be constant-approximable), so solvers treat it as soft and
	// the audit reports the realized excess.
	IngestCap []float64 `json:"ingest_cap,omitempty"`

	// SinkOf groups demand units into multi-stream sinks (see
	// multistream.go): SinkOf[j] is the physical sink ("viewer") that
	// demand unit j — one (sink, stream) subscription — belongs to. Nil
	// means every unit is its own sink (the paper's single-stream model).
	// Viewer ids must be dense, nondecreasing and contiguous, each
	// viewer's streams distinct, and §6.3 edge caps constant within a
	// viewer; Validate enforces all of it.
	SinkOf []int `json:"sink_of,omitempty"`

	// UnitWeight[j] is the number of real subscriptions demand unit j
	// stands for — the weighted super-sink view of internal/agg, where
	// one unit aggregates many co-located viewers of the same stream.
	// Serving unit j consumes UnitWeight[j]·B^k fanout units at the
	// reflector (constraint (3) and the cutting planes (4) scale by it),
	// while the covering constraint is per-unit as before: meeting the
	// representative threshold meets every member. Nil means every unit
	// weighs 1 (the flat model). Weights may be 0 (a fully unsubscribed
	// aggregate); such units should carry Threshold 0 too.
	UnitWeight []float64 `json:"unit_weight,omitempty"`
}

// Dims returns (|S|, |R|, |D|).
func (in *Instance) Dims() (s, r, d int) {
	return in.NumSources, in.NumReflectors, in.NumSinks
}

// Validate checks structural consistency: matrix shapes, probability and
// threshold ranges, nonnegative costs, fanouts, and extension data.
func (in *Instance) Validate() error {
	S, R, D := in.Dims()
	if S <= 0 || R <= 0 || D <= 0 {
		return fmt.Errorf("netmodel: non-positive dimensions S=%d R=%d D=%d", S, R, D)
	}
	if len(in.ReflectorCost) != R {
		return fmt.Errorf("netmodel: ReflectorCost has %d entries, want %d", len(in.ReflectorCost), R)
	}
	if len(in.Fanout) != R {
		return fmt.Errorf("netmodel: Fanout has %d entries, want %d", len(in.Fanout), R)
	}
	for i, f := range in.Fanout {
		if f < 0 {
			return fmt.Errorf("netmodel: negative fanout %g at reflector %d", f, i)
		}
	}
	for i, c := range in.ReflectorCost {
		if c < 0 || math.IsNaN(c) {
			return fmt.Errorf("netmodel: bad reflector cost %g at %d", c, i)
		}
	}
	if err := checkMatrix("SrcRefLoss", in.SrcRefLoss, S, R, 0, 1); err != nil {
		return err
	}
	if err := checkMatrix("RefSinkLoss", in.RefSinkLoss, R, D, 0, 1); err != nil {
		return err
	}
	if err := checkMatrix("SrcRefCost", in.SrcRefCost, S, R, 0, math.Inf(1)); err != nil {
		return err
	}
	if err := checkMatrix("RefSinkCost", in.RefSinkCost, R, D, 0, math.Inf(1)); err != nil {
		return err
	}
	if len(in.Commodity) != D {
		return fmt.Errorf("netmodel: Commodity has %d entries, want %d", len(in.Commodity), D)
	}
	for j, k := range in.Commodity {
		if k < 0 || k >= S {
			return fmt.Errorf("netmodel: sink %d demands unknown commodity %d", j, k)
		}
	}
	if len(in.Threshold) != D {
		return fmt.Errorf("netmodel: Threshold has %d entries, want %d", len(in.Threshold), D)
	}
	for j, phi := range in.Threshold {
		if phi < 0 || phi >= 1 {
			return fmt.Errorf("netmodel: threshold %g at sink %d outside [0,1)", phi, j)
		}
	}
	if in.Bandwidth != nil {
		if len(in.Bandwidth) != S {
			return fmt.Errorf("netmodel: Bandwidth has %d entries, want %d", len(in.Bandwidth), S)
		}
		for k, b := range in.Bandwidth {
			if b <= 0 {
				return fmt.Errorf("netmodel: non-positive bandwidth %g for stream %d", b, k)
			}
		}
	}
	if in.EdgeCap != nil {
		if err := checkMatrix("EdgeCap", in.EdgeCap, R, D, 0, math.Inf(1)); err != nil {
			return err
		}
	}
	if in.Color != nil {
		if len(in.Color) != R {
			return fmt.Errorf("netmodel: Color has %d entries, want %d", len(in.Color), R)
		}
		if in.NumColors <= 0 {
			return errors.New("netmodel: Color set but NumColors not positive")
		}
		for i, c := range in.Color {
			if c < 0 || c >= in.NumColors {
				return fmt.Errorf("netmodel: reflector %d has color %d outside [0,%d)", i, c, in.NumColors)
			}
		}
	}
	if in.IngestCap != nil {
		if len(in.IngestCap) != R {
			return fmt.Errorf("netmodel: IngestCap has %d entries, want %d", len(in.IngestCap), R)
		}
		for i, u := range in.IngestCap {
			if u < 0 || math.IsNaN(u) {
				return fmt.Errorf("netmodel: bad ingest cap %g at reflector %d", u, i)
			}
		}
	}
	if in.UnitWeight != nil {
		if len(in.UnitWeight) != D {
			return fmt.Errorf("netmodel: UnitWeight has %d entries, want %d", len(in.UnitWeight), D)
		}
		for j, w := range in.UnitWeight {
			if w < 0 || math.IsNaN(w) || math.IsInf(w, 0) {
				return fmt.Errorf("netmodel: bad unit weight %g at sink %d", w, j)
			}
		}
	}
	return in.validateSinkOf()
}

func checkMatrix(name string, m [][]float64, rows, cols int, lo, hi float64) error {
	if len(m) != rows {
		return fmt.Errorf("netmodel: %s has %d rows, want %d", name, len(m), rows)
	}
	for r, row := range m {
		if len(row) != cols {
			return fmt.Errorf("netmodel: %s row %d has %d cols, want %d", name, r, len(row), cols)
		}
		for c, v := range row {
			if math.IsNaN(v) || v < lo || v > hi {
				return fmt.Errorf("netmodel: %s[%d][%d]=%g outside [%g,%g]", name, r, c, v, lo, hi)
			}
		}
	}
	return nil
}

// PathFailure returns the probability that a packet of sink j's commodity is
// lost on the two-hop path through reflector i: p_{ki} + p_{ij} - p_{ki}p_{ij}
// (§1.3), where k = Commodity[j].
func (in *Instance) PathFailure(i, j int) float64 {
	k := in.Commodity[j]
	pki := in.SrcRefLoss[k][i]
	pij := in.RefSinkLoss[i][j]
	return pki + pij - pki*pij
}

// Weight returns w^k_{ij} = -log of the path failure probability for serving
// sink j via reflector i (§2). Probabilities are clamped to
// [ProbEps, 1-ProbEps] so the weight is finite.
func (in *Instance) Weight(i, j int) float64 {
	return pathWeight(in.PathFailure(i, j))
}

// pathWeight is the weight of a path that loses a packet with probability p.
func pathWeight(p float64) float64 { return -math.Log(clampProb(p)) }

// Demand returns W^k_j = -log(1 - Φ^k_j), the weight each sink must
// accumulate across its chosen reflectors (§2).
func (in *Instance) Demand(j int) float64 {
	return -math.Log(clampProb(1 - in.Threshold[j]))
}

// CappedWeight returns min(Weight(i,j), Demand(j)). The analysis in §4
// assumes WLOG w^k_{ij} ≤ W^k_j ("it never helps to have more weight on an
// edge than the one that a sink demands"); all solvers use the capped weight.
func (in *Instance) CappedWeight(i, j int) float64 {
	return in.CappedWeightFor(i, j, in.Demand(j))
}

// CappedWeightFor is CappedWeight(i, j) for a caller that already holds
// demand = Demand(j), such as one weighing every candidate arc of a sink.
func (in *Instance) CappedWeightFor(i, j int, demand float64) float64 {
	return capWeight(in.Weight(i, j), demand)
}

// capWeight caps a sink's arc weight at its demand.
func capWeight(w, demand float64) float64 {
	if w > demand {
		return demand
	}
	return w
}

// StreamBandwidth returns B^k (1 when the §6.1 extension is unused).
func (in *Instance) StreamBandwidth(k int) float64 {
	if in.Bandwidth == nil {
		return 1
	}
	return in.Bandwidth[k]
}

// Weighted reports whether the instance carries per-unit weights (the
// aggregated super-sink view of internal/agg).
func (in *Instance) Weighted() bool { return in.UnitWeight != nil }

// WeightOf returns UnitWeight[j] (1 when the instance is unweighted).
func (in *Instance) WeightOf(j int) float64 {
	if in.UnitWeight == nil {
		return 1
	}
	return in.UnitWeight[j]
}

// UnitLoad returns the fanout load serving demand unit j puts on a
// reflector: UnitWeight[j]·B^k for k = Commodity[j]. Every capacity
// consumer (LP constraint (3)/(4), FanoutUse, rounding, shard bidding)
// must use this instead of the bare stream bandwidth so weighted
// aggregates reserve capacity for all their members.
func (in *Instance) UnitLoad(j int) float64 {
	return in.WeightOf(j) * in.StreamBandwidth(in.Commodity[j])
}

// ArcAllowed reports whether the reflector i -> sink j arc is usable: the
// §6.3 capacity, if present, must be at least 1 for an integral assignment.
func (in *Instance) ArcAllowed(i, j int) bool {
	if in.EdgeCap == nil {
		return true
	}
	return in.EdgeCap[i][j] >= 1
}

// SinksOfCommodity returns, for each commodity k, the sinks demanding k.
func (in *Instance) SinksOfCommodity() [][]int {
	out := make([][]int, in.NumSources)
	for j, k := range in.Commodity {
		out[k] = append(out[k], j)
	}
	return out
}

// Clone returns a deep copy of the instance.
func (in *Instance) Clone() *Instance {
	cp := *in
	cp.ReflectorCost = append([]float64(nil), in.ReflectorCost...)
	cp.Fanout = append([]float64(nil), in.Fanout...)
	cp.SrcRefLoss = cloneMatrix(in.SrcRefLoss)
	cp.RefSinkLoss = cloneMatrix(in.RefSinkLoss)
	cp.SrcRefCost = cloneMatrix(in.SrcRefCost)
	cp.RefSinkCost = cloneMatrix(in.RefSinkCost)
	cp.Commodity = append([]int(nil), in.Commodity...)
	cp.Threshold = append([]float64(nil), in.Threshold...)
	if in.Bandwidth != nil {
		cp.Bandwidth = append([]float64(nil), in.Bandwidth...)
	}
	if in.EdgeCap != nil {
		cp.EdgeCap = cloneMatrix(in.EdgeCap)
	}
	if in.Color != nil {
		cp.Color = append([]int(nil), in.Color...)
	}
	if in.IngestCap != nil {
		cp.IngestCap = append([]float64(nil), in.IngestCap...)
	}
	if in.SinkOf != nil {
		cp.SinkOf = append([]int(nil), in.SinkOf...)
	}
	if in.UnitWeight != nil {
		cp.UnitWeight = append([]float64(nil), in.UnitWeight...)
	}
	return &cp
}

func cloneMatrix(m [][]float64) [][]float64 {
	if m == nil {
		return nil
	}
	out := make([][]float64, len(m))
	for i, row := range m {
		out[i] = append([]float64(nil), row...)
	}
	return out
}

func clampProb(p float64) float64 {
	if p < ProbEps {
		return ProbEps
	}
	if p > 1-ProbEps {
		return 1 - ProbEps
	}
	return p
}

// NewZeroInstance allocates an instance of the given dimensions with all
// probabilities, costs and thresholds zero, commodities all 0, fanouts zero.
// Generators fill in the fields.
func NewZeroInstance(s, r, d int) *Instance {
	in := &Instance{
		NumSources:    s,
		NumReflectors: r,
		NumSinks:      d,
		ReflectorCost: make([]float64, r),
		Fanout:        make([]float64, r),
		SrcRefLoss:    zeroMatrix(s, r),
		RefSinkLoss:   zeroMatrix(r, d),
		SrcRefCost:    zeroMatrix(s, r),
		RefSinkCost:   zeroMatrix(r, d),
		Commodity:     make([]int, d),
		Threshold:     make([]float64, d),
	}
	return in
}

func zeroMatrix(rows, cols int) [][]float64 {
	m := make([][]float64, rows)
	backing := make([]float64, rows*cols)
	for i := range m {
		m[i], backing = backing[:cols:cols], backing[cols:]
	}
	return m
}
