package netmodel

import (
	"fmt"
	"math"
)

// Design is an integral overlay network: which reflectors are built (z_i),
// which streams each built reflector ingests (y^k_i), and which reflector
// serves which sink (x^k_{ij}; since each sink demands one commodity this is
// an R×D boolean matrix).
type Design struct {
	Build   []bool   `json:"build"`  // z_i
	Ingest  [][]bool `json:"ingest"` // y[k][i]
	Serve   [][]bool `json:"serve"`  // x[i][j]
	Comment string   `json:"comment,omitempty"`
}

// NewDesign returns an all-zero design shaped for in.
func NewDesign(in *Instance) *Design {
	S, R, D := in.Dims()
	d := &Design{
		Build:  make([]bool, R),
		Ingest: make([][]bool, S),
		Serve:  make([][]bool, R),
	}
	for k := 0; k < S; k++ {
		d.Ingest[k] = make([]bool, R)
	}
	for i := 0; i < R; i++ {
		d.Serve[i] = make([]bool, D)
	}
	return d
}

// Clone returns a deep copy of the design.
func (d *Design) Clone() *Design {
	cp := &Design{
		Build:   append([]bool(nil), d.Build...),
		Ingest:  make([][]bool, len(d.Ingest)),
		Serve:   make([][]bool, len(d.Serve)),
		Comment: d.Comment,
	}
	for k := range d.Ingest {
		cp.Ingest[k] = append([]bool(nil), d.Ingest[k]...)
	}
	for i := range d.Serve {
		cp.Serve[i] = append([]bool(nil), d.Serve[i]...)
	}
	return cp
}

// Normalize enforces the implication constraints (1) and (2) of the IP in
// the cheap direction: serving a sink forces ingesting the stream, and
// ingesting forces building. It never removes service decisions.
func (d *Design) Normalize(in *Instance) {
	_, R, D := in.Dims()
	for i := 0; i < R; i++ {
		for j := 0; j < D; j++ {
			if d.Serve[i][j] {
				d.Ingest[in.Commodity[j]][i] = true
			}
		}
	}
	for k := range d.Ingest {
		for i, v := range d.Ingest[k] {
			if v {
				d.Build[i] = true
			}
		}
	}
}

// Cost returns the total cost of the design under the §2 objective:
// Σ r_i z_i + Σ c^k_{ki} y^k_i + Σ c^k_{ij} x^k_{ij}.
func (d *Design) Cost(in *Instance) float64 {
	total := 0.0
	for i, b := range d.Build {
		if b {
			total += in.ReflectorCost[i]
		}
	}
	for k := range d.Ingest {
		for i, v := range d.Ingest[k] {
			if v {
				total += in.SrcRefCost[k][i]
			}
		}
	}
	for i := range d.Serve {
		for j, v := range d.Serve[i] {
			if v {
				total += in.RefSinkCost[i][j]
			}
		}
	}
	return total
}

// FanoutUse returns the fanout consumed at reflector i:
// Σ_j x_{ij} · UnitWeight[j] · B^k (weights and B^k are 1 without the
// internal/agg and §6.1 extensions respectively).
func (d *Design) FanoutUse(in *Instance, i int) float64 {
	use := 0.0
	for j, v := range d.Serve[i] {
		if v {
			use += in.UnitLoad(j)
		}
	}
	return use
}

// SinkWeight returns the accumulated (capped) weight at sink j:
// Σ_i x_{ij} · min(w_{ij}, W_j).
func (d *Design) SinkWeight(in *Instance, j int) float64 {
	w := 0.0
	for i := range d.Serve {
		if d.Serve[i][j] {
			w += in.CappedWeight(i, j)
		}
	}
	return w
}

// SinkFailureProb returns the exact probability that a packet fails to reach
// sink j given the design: the product over serving reflectors of the
// two-hop path failure probabilities (§1.3; exact for 3-level networks
// because distinct two-hop paths to a sink share no links).
// A sink served by no reflector fails with probability 1.
func (d *Design) SinkFailureProb(in *Instance, j int) float64 {
	p := 1.0
	for i := range d.Serve {
		if d.Serve[i][j] {
			p *= in.PathFailure(i, j)
		}
	}
	return p
}

// Audit is a full constraint-by-constraint check of a design against an
// instance, reporting the worst multiplicative violations. A design meeting
// the paper's end-to-end guarantee has WeightFactor ≥ 1/4 and
// FanoutFactor ≤ 4 (and ColorExcess = 0 when §6.4 is active only for the
// path-rounded variant's additive bound).
type Audit struct {
	Cost float64
	// WeightFactor is min_j SinkWeight(j)/Demand(j); ≥ 1 means every
	// reliability constraint is met outright (sinks with zero demand are
	// skipped).
	WeightFactor float64
	// WorstSink is the argmin of the above.
	WorstSink int
	// FanoutFactor is max_i FanoutUse(i)/F_i (built reflectors only,
	// reflectors with zero fanout must be unused or the factor is +Inf).
	FanoutFactor float64
	// WorstReflector is the argmax of the above.
	WorstReflector int
	// StructureOK reports constraints (1),(2): serve ⇒ ingest ⇒ build.
	StructureOK bool
	// ColorExcess is the §6.4 violation: max over (sink, color) of
	// (copies delivered from that color) - 1; 0 when the constraint holds.
	ColorExcess int
	// EdgeCapExcess is the §6.3 violation: max over arcs of
	// (flow on arc) - u_{ij}, counting each served sink as 1 unit.
	EdgeCapExcess float64
	// IngestExcess is the §6.2 constraint-(8) violation: max over
	// reflectors of (streams ingested) − u_i. §6.2 proves an O(log n)
	// violation is unavoidable in general.
	IngestExcess float64
	// MetDemand counts demand units whose success probability meets Φ_j
	// exactly (via the exact product, not the weight surrogate).
	MetDemand int
	// Sinks is the total number of demand units with positive demand.
	Sinks int
	// MetViewers counts physical sinks (viewers, see multistream.go) ALL
	// of whose active subscriptions meet their thresholds; Viewers counts
	// viewers with at least one active subscription. On instances without
	// a sink grouping these equal MetDemand and Sinks.
	MetViewers int
	Viewers    int
	// Met is the per-demand-unit breakdown behind MetDemand: Met[j] is true
	// when unit j has positive demand and meets its exact reliability
	// threshold. Consumers slicing availability along another dimension —
	// the live engine's per-region SLO — aggregate from here instead of
	// re-auditing.
	Met []bool
}

// AuditDesign audits d against in. It makes one row-major pass over
// d.Serve: each sink's capped weight and failure product accumulate in
// reflector order, and each reflector's fanout use and the serve cost in
// sink order. Those are the orders SinkWeight, SinkFailureProb, FanoutUse
// and Cost add in, so every float the audit reports equals theirs bit for
// bit. Each served arc of an active sink costs one logarithm, and a sink's
// demand one more only when its threshold differs from the previous active
// sink's.
func AuditDesign(in *Instance, d *Design) Audit {
	S, R, D := in.Dims()
	a := Audit{WeightFactor: math.Inf(1), WorstSink: -1, WorstReflector: -1, StructureOK: true}
	// Per active sink: demand, accumulated capped weight, failure product.
	buf := make([]float64, 3*D)
	dem, got, fail := buf[:D], buf[D:2*D], buf[2*D:]
	lastPhi, lastDem := math.NaN(), 0.0
	for j, phi := range in.Threshold {
		if phi <= 0 {
			continue
		}
		if phi != lastPhi {
			lastPhi, lastDem = phi, in.Demand(j)
		}
		dem[j], fail[j] = lastDem, 1
	}

	cost := 0.0
	for i, b := range d.Build {
		if b {
			cost += in.ReflectorCost[i]
		}
	}
	for k, row := range d.Ingest {
		for i, y := range row {
			if !y {
				continue
			}
			cost += in.SrcRefCost[k][i]
			if !d.Build[i] {
				a.StructureOK = false
			}
		}
	}
	for i := 0; i < R; i++ {
		use := 0.0
		for j, x := range d.Serve[i][:D] {
			if !x {
				continue
			}
			cost += in.RefSinkCost[i][j]
			use += in.UnitLoad(j)
			if !d.Ingest[in.Commodity[j]][i] {
				a.StructureOK = false
			}
			if in.EdgeCap != nil {
				if ex := 1 - in.EdgeCap[i][j]; ex > a.EdgeCapExcess {
					a.EdgeCapExcess = ex
				}
			}
			if in.Threshold[j] > 0 {
				p := in.PathFailure(i, j)
				got[j] += capWeight(pathWeight(p), dem[j])
				fail[j] *= p
			}
		}
		if use == 0 {
			continue
		}
		var f float64
		if in.Fanout[i] <= 0 {
			f = math.Inf(1)
		} else {
			f = use / in.Fanout[i]
		}
		if f > a.FanoutFactor {
			a.FanoutFactor = f
			a.WorstReflector = i
		}
	}
	a.Cost = cost

	// Weights and exact reliability (per demand unit, then rolled up to
	// viewers: a viewer is met only when every active subscription is).
	met := make([]bool, D)
	for j := 0; j < D; j++ {
		if in.Threshold[j] <= 0 {
			continue
		}
		a.Sinks++
		if f := got[j] / dem[j]; f < a.WeightFactor {
			a.WeightFactor = f
			a.WorstSink = j
		}
		if 1-fail[j] >= in.Threshold[j]-1e-12 {
			a.MetDemand++
			met[j] = true
		}
	}
	a.Met = met
	if a.Sinks == 0 {
		a.WeightFactor = 1
	}
	for lo := 0; lo < D; {
		hi := lo + 1
		for hi < D && in.Viewer(hi) == in.Viewer(lo) {
			hi++
		}
		active, allMet := false, true
		for j := lo; j < hi; j++ {
			if in.Threshold[j] > 0 {
				active = true
				allMet = allMet && met[j]
			}
		}
		if active {
			a.Viewers++
			if allMet {
				a.MetViewers++
			}
		}
		lo = hi
	}
	// Colors (§6.4).
	if in.Color != nil {
		counts := make([]int, in.NumColors)
		for j := 0; j < D; j++ {
			clear(counts)
			for i := 0; i < R; i++ {
				if d.Serve[i][j] {
					counts[in.Color[i]]++
				}
			}
			for _, c := range counts {
				if c-1 > a.ColorExcess {
					a.ColorExcess = c - 1
				}
			}
		}
	}
	// Ingest caps (§6.2 constraint (8)).
	if in.IngestCap != nil {
		for i := 0; i < R; i++ {
			streams := 0.0
			for k := 0; k < S; k++ {
				if d.Ingest[k][i] {
					streams++
				}
			}
			if ex := streams - in.IngestCap[i]; ex > a.IngestExcess {
				a.IngestExcess = ex
			}
		}
	}
	return a
}

// String renders a one-line audit summary.
func (a Audit) String() string {
	return fmt.Sprintf("cost=%.4g weightFactor=%.3f fanoutFactor=%.3f met=%d/%d structureOK=%v colorExcess=%d",
		a.Cost, a.WeightFactor, a.FanoutFactor, a.MetDemand, a.Sinks, a.StructureOK, a.ColorExcess)
}
