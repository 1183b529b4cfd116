// Package shard decomposes an overlay-design instance into commodity-region
// shards that can be solved as independent, much smaller LPs, and reconciles
// the one resource the shards share — reflector fanout capacity — with an
// iterative coordination pass.
//
// The paper's step-2 LP is the scaling bottleneck: its x_{ij} variables grow
// as |R|·|D|, and simplex wall-clock grows superlinearly in the model size,
// so one monolithic solve over thousands of sinks costs orders of magnitude
// more than the sum of per-region solves (Andreev et al., arXiv:1109.4114,
// exploit the same decomposability in their clustered formulation;
// CliqueStream, arXiv:0903.4365, scales overlay streaming with cluster-local
// construction under a thin global layer). Demand decomposes naturally: a
// sink is served almost always from reflectors of its own region-cluster, so
// partitioning sinks by their cheapest reflector recovers the region
// structure without being told the regions.
//
// The pipeline is:
//
//  1. Partition: sinks are grouped by their cost-anchor reflector and cut
//     into k balanced shards (PartitionSinks). The partition depends only on
//     the cost structure, not on which sinks are currently active, so it is
//     stable across live churn and per-shard LP shapes stay warm-startable.
//  2. Capacity split: each reflector's fanout F_i is divided among shards
//     proportionally to bandwidth-weighted affinity (how many of a shard's
//     active sinks consider the reflector cheap), smoothed so no shard is
//     permanently locked out.
//  3. Parallel solve: one full solve (LP + rounding + audit) per shard via
//     internal/par, each on a sub-instance whose Fanout row is the shard's
//     allocation. Because every shard respects its own allocation up to the
//     paper's ×4 rounding bound, the merged design respects 4·F_i — the
//     monolithic guarantee survives sharding.
//  4. Coordinate: shards that saturated their allocation at a reflector (or
//     whose LP went infeasible outright) bid for contested capacity; the
//     residual is re-split proportionally to realized use plus bids, and
//     only the shards whose allocation materially changed re-solve (the
//     caller warm-starts each from its previous basis). Rounds repeat until
//     no shard is starved and no capacity is contested, or the round cap
//     hits.
//  5. Merge: per-shard designs are OR-ed into one full-shape design
//     (build/ingest union, serve arcs re-indexed to global sink ids) and
//     audited against the full instance by the caller.
//
// The package deliberately does not import internal/core and holds no
// solver state: the caller supplies the per-shard solver as a callback,
// keeps whatever each shard's solve carries (basis, built LP, path LP) beside
// the State, and threads the phases through its instrumented pipeline as the
// shard-partition / shard-solve / shard-coordinate stages.
package shard

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"repro/internal/lpmodel"
	"repro/internal/netmodel"
	"repro/internal/par"
)

// Options tunes the sharded solve. Per-shard solves run GOMAXPROCS-wide.
type Options struct {
	// Shards is the number of shards k (callers clamp to ≥2 and ≤ |D|).
	Shards int
	// Rounds caps coordination rounds after the initial solve (default 3).
	Rounds int
}

const (
	// cheapFactor defines a sink's cheap reflector set: every reflector
	// whose serving cost is within this factor of the sink's cheapest.
	// Drives both partitioning and capacity affinity.
	cheapFactor = 1.25
	// saturationFrac is the fraction of its allocation a shard must use at
	// a reflector to be considered capacity-hungry there.
	saturationFrac = 0.9
)

func (o Options) withDefaults() Options {
	if o.Rounds <= 0 {
		o.Rounds = 3
	}
	return o
}

// State is what the sharded path keeps across live epochs: the partition
// (so per-shard LP shapes stay identical), the last capacity allocation (so
// the split adapts instead of restarting from affinity) and the cached
// sub-instances. A State from a differently-shaped instance or a different
// shard count is detected and ignored (Plan.Reused). A State without Alloc
// keeps the partition and the cached sub-instances but starts the split from
// affinity: what a cold session hands its solve. The shards' solver state is
// the caller's, kept per shard beside the State.
type State struct {
	S, R, D int
	Sinks   [][]int
	Alloc   [][]float64
	// Subs caches each shard's extracted sub-instance. Under the delta flow
	// (BindSubs given routed dirty sets) the next epoch patches the cached
	// sub in place — re-pointing the matrices shared with the parent and
	// rewriting only the sink-indexed cells the dirty set names — instead of
	// re-extracting, and a shard whose routed dirty set is empty skips
	// extraction entirely. Invalidated with the rest of the state on any
	// partition or shape change.
	Subs []*netmodel.Instance
}

// EffectiveShards returns the shard count PartitionSinks actually produces
// for k requested shards: requests are clamped to the number of atomic
// demand groups — viewers on multi-stream instances, sinks otherwise — with
// a floor of 1. Warm-state plumbing must compare against this, not the raw
// request: a request above the clamp would otherwise mismatch the (clamped)
// cached partition every epoch and silently discard all warm state.
func EffectiveShards(in *netmodel.Instance, k int) int {
	if g := in.NumViewers(); k > g {
		k = g
	}
	if k < 1 {
		k = 1
	}
	return k
}

// compatible reports whether the state's partition fits a solve of in with
// k shards.
func (st *State) compatible(in *netmodel.Instance, k int) bool {
	if st == nil || len(st.Sinks) != k {
		return false
	}
	S, R, D := in.Dims()
	if st.S != S || st.R != R || st.D != D {
		return false
	}
	total := 0
	for s := range st.Sinks {
		total += len(st.Sinks[s])
	}
	return total == D
}

// hasAlloc reports whether the state carries a capacity split: one row of
// st.R reflector shares per shard.
func (st *State) hasAlloc() bool {
	if len(st.Alloc) != len(st.Sinks) {
		return false
	}
	for _, row := range st.Alloc {
		if len(row) != st.R {
			return false
		}
	}
	return true
}

// SolveResult is what the caller's per-shard solver returns: what the
// coordinator reads of a shard's solve. The design and its audit drive the
// capacity usage and hunger checks, and the LP cost the improvement check.
// Solver counters and warm starts stay with the caller.
type SolveResult struct {
	Design *netmodel.Design
	Audit  netmodel.Audit
	LPCost float64
}

// SolveFunc solves one shard: s is the shard index (for seed mixing and for
// the caller's per-shard state), sub the extracted sub-instance. An
// LP-infeasible shard must return an error wrapping lpmodel.ErrInfeasible;
// the coordinator treats it as capacity starvation and re-allocates instead
// of failing the solve.
type SolveFunc func(s int, sub *netmodel.Instance) (*SolveResult, error)

// Plan is a prepared sharded solve: the partition, the current capacity
// allocation, the extracted sub-instances, and the coordination state the
// coordinator updates round by round.
type Plan struct {
	In    *netmodel.Instance
	Sinks [][]int     // per-shard global sink ids, ascending
	Alloc [][]float64 // [shard][reflector] fanout share; Σ_s Alloc[s][i] = F_i
	Subs  []*netmodel.Instance
	// Reused reports that Prepare kept the given State's partition. What a
	// caller keeps per shard beside the State is valid exactly as long: on
	// another sink set, a carried shard LP would describe the wrong sinks.
	Reused bool
	opts   Options
	aff    [][]float64 // bandwidth-weighted cheap-set affinity [shard][reflector]

	results      []*SolveResult // latest per-shard results (nil = starved)
	starved      []bool
	starveRounds []int  // consecutive rounds a shard has stayed starved
	settled      []bool // shard re-solved with more capacity and didn't improve

	cachedSubs []*netmodel.Instance // previous epoch's sub-instances (nil = none)
	skips      int                  // shards whose extraction BindSubs skipped
}

// Shards returns the shard count of the plan.
func (p *Plan) Shards() int { return len(p.Sinks) }

// PartitionSinks groups the instance's sinks into k balanced shards by cost
// anchor. It works on real sinks (viewers): a viewer's anchor is the
// reflector that serves its whole stream bundle cheapest
// (netmodel.Instance.CostAnchors), viewers are ordered by (anchor, id), and
// the order is cut into k chunks balanced by UNIT count (a 3-stream viewer
// weighs three single-stream ones), never splitting a viewer. On
// region-clustered topologies the cheapest reflector is intra-region, so the
// cut recovers the region clusters; on unstructured instances it degrades to
// a balanced deterministic split. The result
// depends only on the cost matrix — never on thresholds — so live sink churn
// does not move sinks between shards. Because a viewer's demand units are
// assigned atomically, one sink's streams never straddle shards (stream
// churn then routes to exactly one shard's Patcher, and per-viewer
// accounting stays shard-local).
func PartitionSinks(in *netmodel.Instance, k int) [][]int {
	D, G := in.NumSinks, in.NumViewers()
	k = EffectiveShards(in, k)
	anchor := in.CostAnchors()
	order := make([]int, G)
	for g := range order {
		order[g] = g
	}
	sort.SliceStable(order, func(a, b int) bool {
		if anchor[order[a]] != anchor[order[b]] {
			return anchor[order[a]] < anchor[order[b]]
		}
		return order[a] < order[b]
	})
	out := make([][]int, k)
	s, acc := 0, 0
	for idx, g := range order {
		// Advance when the current shard hit its unit target, or when the
		// viewers left are only just enough to feed the still-empty shards
		// after this one (k-1-s of them) — without the latter guard a run
		// of small viewers followed by a big one can exhaust the order
		// before every shard is fed, leaving an empty shard.
		mustAdvance := G-idx <= k-1-s
		canAdvance := acc >= (s+1)*D/k
		if s < k-1 && len(out[s]) > 0 && (mustAdvance || canAdvance) {
			s++
		}
		lo, hi := in.ViewerRange(g)
		for j := lo; j < hi; j++ {
			out[s] = append(out[s], j)
		}
		acc += hi - lo
	}
	for s := range out {
		sort.Ints(out[s])
	}
	return out
}

// Prepare builds a Plan: partition (reused from state when compatible),
// affinity, and initial capacity allocation (rescaled from the state's when
// it carries one, so a learned split survives repricing and adapts to fanout
// changes). BindSubs then binds the per-shard sub-instances.
func Prepare(in *netmodel.Instance, opts Options, state *State) (*Plan, error) {
	opts = opts.withDefaults()
	if opts.Shards < 2 {
		return nil, fmt.Errorf("shard: %d shards requested, need ≥ 2", opts.Shards)
	}
	// Clamp before the warm-state check: PartitionSinks caps the count at the
	// number of atomic demand groups, so a State built from an over-asked k
	// carries the clamped partition and must still match.
	opts.Shards = EffectiveShards(in, opts.Shards)
	p := &Plan{In: in, opts: opts, Reused: state.compatible(in, opts.Shards)}
	if p.Reused {
		p.Sinks = state.Sinks
		if len(state.Subs) == len(state.Sinks) {
			p.cachedSubs = state.Subs
		}
	} else {
		state = nil
		p.Sinks = PartitionSinks(in, opts.Shards)
	}
	k := len(p.Sinks)
	p.computeAffinity()
	if state != nil && state.hasAlloc() {
		p.Alloc = rescaleAlloc(state.Alloc, in.Fanout, p.aff)
	} else {
		p.Alloc = allocFromAffinity(p.aff, in.Fanout)
	}
	p.Subs = make([]*netmodel.Instance, k)
	p.results = make([]*SolveResult, k)
	p.starved = make([]bool, k)
	p.starveRounds = make([]int, k)
	p.settled = make([]bool, k)
	return p, nil
}

// BindSubs fills the plan's sub-instances, the second phase of preparation
// (Prepare must run first so the caller can route the epoch's dirty set
// through the partition before binding). dirty carries one routed set per
// shard under the delta-flow contract — every parent change affecting shard
// s is listed in dirty[s], so a cached sub-instance can be patched in place:
// matrices shared with the parent are re-pointed (the parent pointer changes
// every epoch under stickiness cloning), the capacity allocation is
// re-copied, and only the sink-indexed cells the dirty set names are
// rewritten. A shard with dirty[s] == nil reuses its cache untouched beyond
// the re-point — the zero-copy path — and counts as a skipped extraction.
// A nil dirty slice means no delta information: every shard extracts fresh
// (the cache is unusable without the contract).
func (p *Plan) BindSubs(dirty []*netmodel.DirtySet) {
	for s := range p.Subs {
		if dirty != nil && p.cachedSubs != nil && p.cachedSubs[s] != nil {
			p.Subs[s] = p.cachedSubs[s]
			rebind(p.Subs[s], p.In, p.Sinks[s], p.Alloc[s], dirty[s])
			p.skips++
			continue
		}
		p.Subs[s] = extract(p.In, p.Sinks[s], p.Alloc[s], s)
	}
}

// computeAffinity fills p.aff: shard s's bandwidth-weighted count of active
// sinks for which reflector i is cheap.
func (p *Plan) computeAffinity() {
	in := p.In
	_, R, _ := in.Dims()
	p.aff = make([][]float64, len(p.Sinks))
	for s, sinks := range p.Sinks {
		row := make([]float64, R)
		for _, j := range sinks {
			if in.Threshold[j] <= 0 {
				continue
			}
			minC := in.RefSinkCost[0][j]
			for i := 1; i < R; i++ {
				if c := in.RefSinkCost[i][j]; c < minC {
					minC = c
				}
			}
			limit := cheapFactor*minC + 1e-12
			b := in.UnitLoad(j)
			for i := 0; i < R; i++ {
				if in.RefSinkCost[i][j] <= limit {
					row[i] += b
				}
			}
		}
		p.aff[s] = row
	}
}

// allocFromAffinity splits each reflector's fanout proportionally to shard
// affinity, with 5% smoothing so a shard with no cheap sinks at a reflector
// still holds a sliver it can grow through coordination. Reflectors nobody
// is near split evenly.
func allocFromAffinity(aff [][]float64, fanout []float64) [][]float64 {
	k := len(aff)
	R := len(fanout)
	alloc := make([][]float64, k)
	for s := range alloc {
		alloc[s] = make([]float64, R)
	}
	for i := 0; i < R; i++ {
		tot := 0.0
		for s := 0; s < k; s++ {
			tot += aff[s][i]
		}
		if tot <= 0 {
			for s := 0; s < k; s++ {
				alloc[s][i] = fanout[i] / float64(k)
			}
			continue
		}
		smooth := 0.05 * tot / float64(k)
		denom := tot + float64(k)*smooth
		for s := 0; s < k; s++ {
			alloc[s][i] = fanout[i] * (aff[s][i] + smooth) / denom
		}
	}
	return alloc
}

// rescaleAlloc adapts a previous epoch's allocation to the instance's
// current fanouts: each reflector keeps its learned split, rescaled to the
// new F_i; a reflector whose previous total was zero (it was failed) falls
// back to the affinity split. A reflector whose fanout did not move (the
// previous split already sums to it, up to accumulated rounding) keeps its
// split bit-for-bit — re-normalizing would perturb every shard's allocation
// by an ulp and make the incremental LP rebuild patch fanout coefficients
// in shards the epoch never touched.
func rescaleAlloc(prev [][]float64, fanout []float64, aff [][]float64) [][]float64 {
	k := len(prev)
	R := len(fanout)
	fresh := allocFromAffinity(aff, fanout)
	alloc := make([][]float64, k)
	for s := range alloc {
		alloc[s] = make([]float64, R)
	}
	for i := 0; i < R; i++ {
		tot := 0.0
		for s := 0; s < k; s++ {
			tot += prev[s][i]
		}
		unchanged := math.Abs(fanout[i]-tot) <= 1e-9*(1+math.Abs(fanout[i]))
		for s := 0; s < k; s++ {
			switch {
			case tot > 0 && unchanged:
				alloc[s][i] = prev[s][i]
			case tot > 0:
				alloc[s][i] = fanout[i] * prev[s][i] / tot
			default:
				alloc[s][i] = fresh[s][i]
			}
		}
	}
	return alloc
}

// extract builds shard s's sub-instance: the shard's sinks with their
// columns of the reflector→sink matrices, the full reflector and source
// sets (|R| and |S| are small in this model — the x variables dominate, so
// restricting them buys little and could cost feasibility), and the shard's
// capacity allocation as the Fanout vector. Matrices that do not depend on
// the sink set are shared with the parent instance — solvers never mutate
// their input — so extraction is cheap and re-extraction after a capacity
// re-split only replaces the Fanout slice.
func extract(in *netmodel.Instance, sinks []int, alloc []float64, s int) *netmodel.Instance {
	S, R, _ := in.Dims()
	d := len(sinks)
	sub := &netmodel.Instance{
		Name:          fmt.Sprintf("%s/shard%d", in.Name, s),
		NumSources:    S,
		NumReflectors: R,
		NumSinks:      d,
		ReflectorCost: in.ReflectorCost,
		Fanout:        append([]float64(nil), alloc...),
		SrcRefLoss:    in.SrcRefLoss,
		SrcRefCost:    in.SrcRefCost,
		RefSinkLoss:   subCols(in.RefSinkLoss, sinks),
		RefSinkCost:   subCols(in.RefSinkCost, sinks),
		Commodity:     subInts(in.Commodity, sinks),
		Threshold:     subFloats(in.Threshold, sinks),
		Bandwidth:     in.Bandwidth,
		Color:         in.Color,
		NumColors:     in.NumColors,
		IngestCap:     in.IngestCap,
	}
	if in.EdgeCap != nil {
		sub.EdgeCap = subCols(in.EdgeCap, sinks)
	}
	if in.UnitWeight != nil {
		sub.UnitWeight = subFloats(in.UnitWeight, sinks)
	}
	if in.SinkOf != nil {
		// Viewers are shard-atomic and their units contiguous in the parent,
		// so renumbering the surviving groups densely keeps the invariants.
		so := make([]int, len(sinks))
		g, last := -1, -1
		for c, j := range sinks {
			if in.SinkOf[j] != last {
				g, last = g+1, in.SinkOf[j]
			}
			so[c] = g
		}
		sub.SinkOf = so
	}
	return sub
}

// rebind refreshes a cached sub-instance against the current parent without
// re-extracting. Matrices extract shares with the parent are re-pointed at
// the current parent (under stickiness the parent is a fresh clone every
// epoch), the Fanout vector is re-copied from the shard's current
// allocation, and the sink-indexed copies are patched cell by cell from the
// routed dirty set (local sink ids; sinks maps them back to the parent's).
// Fields with no churn surface — Commodity, EdgeCap, SinkOf, the dims — are
// trusted from the cache: the partition is stable and a shape change
// invalidates the whole State before reaching here.
func rebind(sub, in *netmodel.Instance, sinks []int, alloc []float64, d *netmodel.DirtySet) {
	sub.ReflectorCost = in.ReflectorCost
	sub.SrcRefLoss = in.SrcRefLoss
	sub.SrcRefCost = in.SrcRefCost
	sub.Bandwidth = in.Bandwidth
	sub.Color = in.Color
	sub.NumColors = in.NumColors
	sub.IngestCap = in.IngestCap
	sub.Fanout = append([]float64(nil), alloc...)
	if d == nil {
		return
	}
	for _, c := range d.SinkDemand {
		sub.Threshold[c] = in.Threshold[sinks[c]]
	}
	for _, a := range d.RefSinkCost {
		sub.RefSinkCost[a.A][a.B] = in.RefSinkCost[a.A][sinks[a.B]]
	}
	for _, a := range d.RefSinkLoss {
		sub.RefSinkLoss[a.A][a.B] = in.RefSinkLoss[a.A][sinks[a.B]]
	}
	for _, c := range d.SinkWeight {
		sub.UnitWeight[c] = in.UnitWeight[sinks[c]]
	}
}

func subCols(m [][]float64, cols []int) [][]float64 {
	out := make([][]float64, len(m))
	backing := make([]float64, len(m)*len(cols))
	for r := range m {
		row := backing[:len(cols):len(cols)]
		backing = backing[len(cols):]
		for c, j := range cols {
			row[c] = m[r][j]
		}
		out[r] = row
	}
	return out
}

func subInts(v []int, idx []int) []int {
	out := make([]int, len(idx))
	for c, j := range idx {
		out[c] = v[j]
	}
	return out
}

func subFloats(v []float64, idx []int) []float64 {
	out := make([]float64, len(idx))
	for c, j := range idx {
		out[c] = v[j]
	}
	return out
}

// SolveAll runs the initial parallel solve round, after BindSubs: every
// shard solved concurrently under the plan's worker bound. LP-infeasible
// shards are recorded as starved for the coordinator; any other error
// aborts.
func (p *Plan) SolveAll(solve SolveFunc) error {
	return p.solveShards(allShards(p.Shards()), solve)
}

func allShards(k int) []int {
	idx := make([]int, k)
	for s := range idx {
		idx[s] = s
	}
	return idx
}

// solveShards solves the given shard indices in parallel, updating
// p.results and p.starved.
func (p *Plan) solveShards(idx []int, solve SolveFunc) error {
	errs := make([]error, len(idx))
	par.ForEach(len(idx), 0, func(n int) {
		s := idx[n]
		res, err := solve(s, p.Subs[s])
		switch {
		case err == nil:
			p.results[s] = res
			p.starved[s] = false
		case errors.Is(err, lpmodel.ErrInfeasible):
			// Starvation — unless the shard already holds a design from a
			// previous round. rebid reserves a feasible shard's realized
			// use, so that design still fits inside the trimmed
			// allocation even when the full-demand LP no longer does;
			// keeping it is strictly better than discarding a deployable
			// design and begging for capacity back.
			if p.results[s] == nil {
				p.starved[s] = true
			}
		default:
			errs[n] = err
		}
	})
	for n, err := range errs {
		if err != nil {
			return fmt.Errorf("shard %d: %w", idx[n], err)
		}
	}
	return nil
}

// Outcome is the result of the coordination pass: the merged full-shape
// design, what coordination did, and the State for the next epoch. The
// shards' solver counters are the caller's: its SolveFunc sees every solve.
type Outcome struct {
	Design *netmodel.Design
	// Rounds is how many coordination rounds ran (0 = initial allocation
	// was never contested); Resolves counts shard re-solves they caused.
	Rounds   int
	Resolves int
	// ConsolidatedBuilds counts duplicate reflector builds the post-merge
	// Consolidate pass evacuated and removed.
	ConsolidatedBuilds int
	// ExtractionsSkipped counts shards whose sub-instance came from the
	// cache (patched or reused in place) instead of a fresh extraction.
	ExtractionsSkipped int
	// State seeds the next same-shaped solve.
	State *State
}

// Coordinate reconciles shared reflector capacity after SolveAll: while some
// shard is starved (infeasible) or saturates its allocation at a reflector
// that another shard leaves slack at, capacity is re-split — each shard's
// new share is proportional to its realized use plus a bid (saturated
// shards bid to roughly double, starved shards bid their affinity share
// plus a flat claim) — and the shards whose allocation materially changed
// re-solve. Terminates when nothing is contested or after the
// round cap; a shard still starved then fails the solve with
// lpmodel.ErrInfeasible (the caller may fall back to a monolithic solve,
// which will prove whether the instance itself is infeasible).
func (p *Plan) Coordinate(solve SolveFunc) (*Outcome, error) {
	k := p.Shards()
	out := &Outcome{}

	for round := 1; round <= p.opts.Rounds; round++ {
		use := p.usage()
		contested, anyStarved := p.contested(use)
		if !anyStarved && len(contested) == 0 {
			break
		}
		out.Rounds = round
		changed := p.rebid(use, contested)
		if len(changed) == 0 {
			break
		}
		for _, s := range changed {
			p.Subs[s].Fanout = append([]float64(nil), p.Alloc[s]...)
		}
		prev := make([]*SolveResult, k)
		copy(prev, p.results)
		if err := p.solveShards(changed, solve); err != nil {
			return nil, err
		}
		out.Resolves += len(changed)
		for s := range p.starved {
			if p.starved[s] {
				p.starveRounds[s]++
			} else {
				p.starveRounds[s] = 0
			}
		}
		for _, s := range changed {
			r := p.results[s]
			if r == nil || prev[s] == nil {
				continue
			}
			improved := r.LPCost < prev[s].LPCost*(1-1e-3) ||
				r.Audit.WeightFactor > prev[s].Audit.WeightFactor+1e-9
			if !improved {
				p.settled[s] = true
			}
		}
	}
	for s, starved := range p.starved {
		if starved {
			return nil, fmt.Errorf("shard: shard %d still %w after %d coordination rounds",
				s, lpmodel.ErrInfeasible, p.opts.Rounds)
		}
	}
	p.finishOutcome(out)
	return out, nil
}

// finishOutcome merges the per-shard designs and fills the outcome's
// next-epoch State.
func (p *Plan) finishOutcome(out *Outcome) {
	in := p.In
	design := p.Merge()
	out.ConsolidatedBuilds = Consolidate(in, design)
	out.Design = design
	out.ExtractionsSkipped = p.skips
	st := &State{Sinks: p.Sinks, Alloc: p.Alloc, Subs: p.Subs}
	st.S, st.R, st.D = in.Dims()
	out.State = st
}

// usage returns each shard's realized fanout consumption per reflector
// (zero rows for starved shards).
func (p *Plan) usage() [][]float64 {
	_, R, _ := p.In.Dims()
	use := make([][]float64, p.Shards())
	for s, r := range p.results {
		use[s] = make([]float64, R)
		if r == nil {
			continue
		}
		for i := 0; i < R; i++ {
			use[s][i] = r.Design.FanoutUse(p.Subs[s], i)
		}
	}
	return use
}

// contested returns the set of reflectors where a saturated shard faces
// another shard's slack, plus whether any shard is starved outright.
func (p *Plan) contested(use [][]float64) (map[int]bool, bool) {
	_, R, _ := p.In.Dims()
	contested := make(map[int]bool)
	anyStarved := false
	for _, st := range p.starved {
		if st {
			anyStarved = true
		}
	}
	for i := 0; i < R; i++ {
		sat, slack := false, false
		for s := range p.results {
			if p.starved[s] {
				continue
			}
			a := p.Alloc[s][i]
			if p.hungry(s) && a > 1e-9 && use[s][i] >= saturationFrac*a {
				sat = true
			} else if a-use[s][i] > 0.02*p.In.Fanout[i] {
				slack = true
			}
		}
		if sat && slack {
			contested[i] = true
		}
	}
	return contested, anyStarved
}

// hungry reports whether shard s would benefit from more capacity: its
// design leaves some sink short of its full weight demand and it has not
// already settled (a settled shard re-solved with a bigger allocation and
// got nothing out of it — its shortfall is a rounding artifact, not a
// capacity one). A fully-served shard never bids — extra capacity can only
// shave cost, and re-splitting for that would churn every other shard.
func (p *Plan) hungry(s int) bool {
	r := p.results[s]
	return r == nil || (!p.settled[s] && r.Audit.WeightFactor < 1)
}

// rebid re-splits capacity at contested reflectors (and at every reflector
// when some shard is starved, since a starved shard's missing capacity may
// be anywhere in its cheap set) and returns the shards whose allocation
// materially changed.
//
// The invariant that makes the pass converge: a feasible shard's realized
// use is RESERVED — its new allocation never drops below what its current
// design consumes, so its design stays feasible under the new split and a
// re-solve can only improve it. Only the free residual (F_i minus all
// reserved use) is re-divided, proportionally to claims: a starved shard
// claims its affinity share plus a stake that doubles every round it stays
// starved, a saturated-and-still-short shard claims roughly double its
// use, and everyone else claims their current slack. Re-allocating from
// slack alone can therefore never starve a previously-feasible shard — the
// oscillation where an aggressive bid knocks out a neighbour is
// structurally impossible.
func (p *Plan) rebid(use [][]float64, contested map[int]bool) []int {
	in := p.In
	_, R, _ := in.Dims()
	k := p.Shards()
	anyStarved := false
	for _, st := range p.starved {
		if st {
			anyStarved = true
		}
	}
	changedShard := make([]bool, k)
	for i := 0; i < R; i++ {
		if !contested[i] && !anyStarved {
			continue
		}
		F := in.Fanout[i]
		if F <= 0 {
			continue
		}
		reserved := 0.0
		for s := 0; s < k; s++ {
			if !p.starved[s] {
				reserved += use[s][i]
			}
		}
		free := F - reserved
		if free <= 1e-12 {
			continue // nothing to re-split without displacing live service
		}
		claims := make([]float64, k)
		tot := 0.0
		for s := 0; s < k; s++ {
			switch {
			case p.starved[s]:
				claims[s] = p.aff[s][i] + (0.2*F+1)*float64(int(1)<<p.starveRounds[s])
			case p.hungry(s) && use[s][i] >= saturationFrac*p.Alloc[s][i] && p.Alloc[s][i] > 1e-9:
				claims[s] = max(p.Alloc[s][i]-use[s][i], 0) + max(use[s][i], 1)
			default:
				claims[s] = max(p.Alloc[s][i]-use[s][i], 0)
			}
			tot += claims[s]
		}
		if tot <= 0 {
			continue
		}
		for s := 0; s < k; s++ {
			base := 0.0
			if !p.starved[s] {
				base = use[s][i]
			}
			next := base + free*claims[s]/tot
			if diff := next - p.Alloc[s][i]; diff > 1e-6*(1+F) || diff < -1e-6*(1+F) {
				changedShard[s] = true
			}
			p.Alloc[s][i] = next
		}
	}
	var changed []int
	for s, ch := range changedShard {
		if ch {
			changed = append(changed, s)
		}
	}
	return changed
}

// Merge unions the per-shard designs into a full-shape design: build and
// ingest decisions are OR-ed (a reflector built by two shards is of course
// built — and paid for — once), and each shard's serve arcs are re-indexed
// to global sink ids. Normalize restores the implication closure on the
// merged instance.
func (p *Plan) Merge() *netmodel.Design {
	d := netmodel.NewDesign(p.In)
	for s, r := range p.results {
		if r == nil {
			continue
		}
		for i, col := range r.Design.Serve {
			for c, v := range col {
				if v {
					d.Serve[i][p.Sinks[s][c]] = true
				}
			}
		}
		for k := range r.Design.Ingest {
			for i, v := range r.Design.Ingest[k] {
				if v {
					d.Ingest[k][i] = true
				}
			}
		}
		for i, v := range r.Design.Build {
			if v {
				d.Build[i] = true
			}
		}
	}
	d.Normalize(p.In)
	return d
}
