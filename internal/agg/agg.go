// Package agg implements hierarchical viewer aggregation: the 10^5–10^6
// sinks of a production CDN footprint are folded into a few hundred weighted
// super-sinks before the LP ever sees them, and unfolded afterwards by a
// cheap deterministic pass. The paper's model (§2) prices one x variable per
// (reflector, sink) arc, so the LP grows as |R|·|D| and a million-viewer
// epoch is out of reach for simplex no matter how warm the basis; but
// viewers are not adversarial — they cluster by region and ISP, and within
// a cluster the reflector economics are near-identical. Aggregation makes
// that observation structural:
//
//   - Viewers are keyed by (group, stream-slot set): the group label is a
//     caller-supplied (region, ISP) key — or, by default, the viewer's cost
//     anchor (netmodel.Instance.CostAnchors, the reflector that serves its
//     whole bundle cheapest, which internal/shard partitions by too) — and
//     the slot set is the set of streams the viewer was BUILT with.
//     Members of an aggregate therefore agree on both economics and LP
//     shape.
//   - Each aggregate contributes one weighted demand unit per stream slot.
//     The unit's UnitWeight is the number of member subscriptions currently
//     active, so reflector fanout is consumed for every real viewer behind
//     the unit (netmodel.Instance.UnitLoad); its Threshold is the max over
//     member thresholds and its per-reflector loss the max over member
//     losses, so any reflector set meeting the representative's covering
//     constraint meets every member's (the capped-weight argument: member
//     path weights dominate the representative's while member demands are
//     dominated by it).
//   - Membership is fixed at Build. Deltas never resize instances
//     (netmodel.Delta's contract), so churn moves weight BETWEEN the fixed
//     units of an aggregate — a join bumps a unit's weight, a leave drops
//     it — and the aggregate LP keeps its shape: warm bases, shard
//     partitions, and the incremental Patcher all survive.
//
// Sync is the dirty-set translator: it folds an epoch's true-instance dirty
// set into the aggregate instance and emits aggregate-level dirty ONLY for
// cells that actually changed. Churn that is weight-neutral inside its
// aggregate — a leave matched by a join on the same (aggregate, stream) —
// therefore emits nothing, and the epoch solves LP-free: no build, no
// patch, no pivot. Disaggregate maps the solved aggregate design back to
// real viewers, sticky to the previous deployment so epoch-to-epoch churn
// stays fractional (netmodel.Churn semantics).
package agg

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"repro/internal/netmodel"
)

// Config controls how viewers are keyed into aggregates.
type Config struct {
	// GroupOf[g] is the aggregation group label of viewer g — typically a
	// (region, ISP) product key. Viewers sharing a label and a stream-slot
	// set merge into one aggregate. Nil auto-groups by cost anchor
	// (netmodel.Instance.CostAnchors).
	GroupOf []int
}

// State carries an aggregation across epochs: the fixed membership, the
// aggregate instance the solver runs on, and the cached per-unit demand
// summaries Sync diffs against.
type State struct {
	// Agg is the weighted aggregate instance. Its reflector- and
	// source-plane slices (costs, fanouts, losses, bandwidths, caps) are
	// SHARED with the true instance, so reflector-plane churn applied to the
	// true instance is visible here without copying; only the sink plane is
	// aggregated. Sync re-points the shared slices each epoch in case the
	// caller hands a clone.
	Agg *netmodel.Instance

	members     [][]int // members[a] = member viewer ids of aggregate a
	unitOf      []int   // unitOf[j] = aggregate unit of true demand unit j
	memberUnits [][]int // memberUnits[au] = true demand units behind au
	scale       []float64
	// costSum[i][au] is the sum of the member arc costs at (i, au), in
	// member order, so a weight flip rescales a unit's costs without
	// summing its members again.
	costSum [][]float64
}

// Groups returns the number of aggregates (super-sinks).
func (st *State) Groups() int { return len(st.members) }

// Units returns the number of aggregate demand units the LP solves over.
func (st *State) Units() int { return st.Agg.NumSinks }

// UnitOf returns the aggregate unit that true demand unit j folds into.
func (st *State) UnitOf(j int) int { return st.unitOf[j] }

// MemberUnits returns the true demand units behind aggregate unit au.
func (st *State) MemberUnits(au int) []int { return st.memberUnits[au] }

// Build folds the instance's viewers into aggregates. The membership is
// fixed for the State's lifetime; the caller keeps mutating the TRUE
// instance through deltas and reports the dirty sets to Sync.
func Build(in *netmodel.Instance, cfg Config) (*State, error) {
	if in.Weighted() {
		return nil, errors.New("agg: instance is already aggregated")
	}
	G := in.NumViewers()
	if cfg.GroupOf != nil && len(cfg.GroupOf) != G {
		return nil, fmt.Errorf("agg: GroupOf has %d entries, want %d viewers", len(cfg.GroupOf), G)
	}
	groups := cfg.GroupOf
	if groups == nil {
		groups = in.CostAnchors()
	}
	units := in.ViewerUnits()

	// Key viewers by (group, slot set); aggregate order is the sorted key
	// order, so the fold is deterministic across runs and processes.
	keyOf := make([]string, G)
	for g := 0; g < G; g++ {
		slots := make([]int, len(units[g]))
		for t, j := range units[g] {
			slots[t] = in.Commodity[j]
		}
		sort.Ints(slots)
		keyOf[g] = fmt.Sprintf("%d|%v", groups[g], slots)
	}
	byKey := make(map[string][]int, G)
	for g := 0; g < G; g++ {
		byKey[keyOf[g]] = append(byKey[keyOf[g]], g)
	}
	keys := make([]string, 0, len(byKey))
	for k := range byKey {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	members := make([][]int, len(keys))
	for a, k := range keys {
		members[a] = byKey[k]
	}
	return buildFromMembers(in, members)
}

// buildFromMembers constructs the full State — aggregate instance, unit
// maps, demand/loss/cost summaries — from a membership partition alone.
// Everything below the membership is a pure function of (members, current
// instance), which is what lets Restore rebuild a serialized State against
// the restored instance without persisting any derived cache.
func buildFromMembers(in *netmodel.Instance, members [][]int) (*State, error) {
	units := in.ViewerUnits()
	st := &State{
		members: members,
		unitOf:  make([]int, in.NumSinks),
	}
	// One aggregate unit per (aggregate, slot); slots in sorted-commodity
	// order within an aggregate.
	var aggCommodity []int
	for _, mem := range members {
		rep := mem[0]
		slots := make([]int, len(units[rep]))
		for t, j := range units[rep] {
			slots[t] = in.Commodity[j]
		}
		sort.Ints(slots)
		for _, stream := range slots {
			au := len(aggCommodity)
			aggCommodity = append(aggCommodity, stream)
			mus := make([]int, 0, len(mem))
			for _, g := range mem {
				mus = append(mus, in.FindUnit(g, stream))
			}
			st.memberUnits = append(st.memberUnits, mus)
			for _, j := range mus {
				st.unitOf[j] = au
			}
		}
	}

	S, R, _ := in.Dims()
	dA := len(aggCommodity)
	a := &netmodel.Instance{
		Name:          in.Name + "/agg",
		NumSources:    S,
		NumReflectors: R,
		NumSinks:      dA,
		ReflectorCost: in.ReflectorCost,
		Fanout:        in.Fanout,
		SrcRefLoss:    in.SrcRefLoss,
		SrcRefCost:    in.SrcRefCost,
		RefSinkLoss:   zeroMatrix(R, dA),
		RefSinkCost:   zeroMatrix(R, dA),
		Commodity:     aggCommodity,
		Threshold:     make([]float64, dA),
		UnitWeight:    make([]float64, dA),
		Bandwidth:     in.Bandwidth,
		Color:         in.Color,
		NumColors:     in.NumColors,
		IngestCap:     in.IngestCap,
	}
	if in.EdgeCap != nil {
		a.EdgeCap = zeroMatrix(R, dA)
	}
	st.Agg = a
	st.scale = make([]float64, dA)
	st.costSum = zeroMatrix(R, dA)
	for au := 0; au < dA; au++ {
		st.refreshDemand(in, au)
		st.scale[au] = math.Max(a.UnitWeight[au], 1)
		for i := 0; i < R; i++ {
			st.refreshLoss(in, i, au)
			st.sumCost(in, i, au)
			st.refreshCost(i, au)
			if a.EdgeCap != nil {
				u := math.Inf(1)
				for _, j := range st.memberUnits[au] {
					if in.EdgeCap[i][j] < u {
						u = in.EdgeCap[i][j]
					}
				}
				a.EdgeCap[i][au] = u
			}
		}
	}
	return st, nil
}

// ColoGroups labels each viewer with the colo of its cost anchor, treating
// reflectors as banks of reflectorsPerColo consecutive indices (the layout
// gen.Clustered produces). The default per-reflector anchor fold grows a
// group per reflector, so at reflector counts in the hundreds the aggregate
// LP inflates back with R; folding anchors to colo granularity caps the fold
// at R/reflectorsPerColo labels independent of how many reflectors share a
// site, which is what keeps the composed aggregated+sharded epoch inside its
// wall budget at |R| ≥ 200. Pass the result as Config.GroupOf.
func ColoGroups(in *netmodel.Instance, reflectorsPerColo int) []int {
	out := in.CostAnchors()
	if reflectorsPerColo > 1 {
		for g := range out {
			out[g] /= reflectorsPerColo
		}
	}
	return out
}

// refreshDemand recomputes aggregate unit au's threshold (max over member
// thresholds) and weight (count of active member subscriptions) from the
// true instance, reporting which of the two actually moved.
func (st *State) refreshDemand(in *netmodel.Instance, au int) (thrChanged, wChanged bool) {
	thr, w := 0.0, 0.0
	for _, j := range st.memberUnits[au] {
		if t := in.Threshold[j]; t > 0 {
			w++
			if t > thr {
				thr = t
			}
		}
	}
	thrChanged = st.Agg.Threshold[au] != thr
	wChanged = st.Agg.UnitWeight[au] != w
	st.Agg.Threshold[au] = thr
	st.Agg.UnitWeight[au] = w
	return thrChanged, wChanged
}

// refreshLoss recomputes the representative loss at (i, au): the max over
// ALL members (active or not), so that joins and leaves never move it — a
// member's path failure through any chosen reflector is at most the
// representative's, which is what makes the aggregate covering constraint
// dominate every member's.
func (st *State) refreshLoss(in *netmodel.Instance, i, au int) bool {
	loss := 0.0
	for _, j := range st.memberUnits[au] {
		if l := in.RefSinkLoss[i][j]; l > loss {
			loss = l
		}
	}
	changed := st.Agg.RefSinkLoss[i][au] != loss
	st.Agg.RefSinkLoss[i][au] = loss
	return changed
}

// sumCost re-sums the member arc costs at (i, au) into the cache.
func (st *State) sumCost(in *netmodel.Instance, i, au int) {
	sum := 0.0
	for _, j := range st.memberUnits[au] {
		sum += in.RefSinkCost[i][j]
	}
	st.costSum[i][au] = sum
}

// refreshCost recomputes the representative serving cost at (i, au) from
// the cached member sum: scale(au) times the mean member arc cost, where
// scale = max(weight, 1). Scaling by the active count makes the LP
// objective price serving the aggregate like serving all its members; the
// max(·,1) floor keeps an all-inactive unit's columns positively priced (no
// free degenerate arcs) and — deliberately — makes the common 0↔1 weight
// flip cost-neutral.
func (st *State) refreshCost(i, au int) bool {
	c := st.scale[au] * st.costSum[i][au] / float64(len(st.memberUnits[au]))
	changed := st.Agg.RefSinkCost[i][au] != c
	st.Agg.RefSinkCost[i][au] = c
	return changed
}

// Sync folds an epoch's true-instance dirty set into the aggregate instance
// and returns the aggregate-level dirty set — the currency the solver's
// incremental LP rebuild consumes. Reflector- and source-plane entries pass
// through verbatim (those planes are shared); sink-plane entries are
// re-summarized per touched aggregate unit and emitted ONLY when the
// aggregate cell actually changed, which is what makes weight-neutral
// intra-aggregate churn an LP-free epoch. in must be the same instance the
// State was built from (mutated in place by the delta flow).
func (st *State) Sync(in *netmodel.Instance, dirty *netmodel.DirtySet) *netmodel.DirtySet {
	a := st.Agg
	// Re-point the shared planes: under stickiness cloning callers may hand
	// a fresh clone of the true instance each epoch.
	a.ReflectorCost = in.ReflectorCost
	a.Fanout = in.Fanout
	a.SrcRefLoss = in.SrcRefLoss
	a.SrcRefCost = in.SrcRefCost
	a.Bandwidth = in.Bandwidth
	a.IngestCap = in.IngestCap

	out := &netmodel.DirtySet{}
	if dirty.Empty() {
		return out
	}
	_, R, _ := in.Dims()

	// Shared planes: same indices on both instances.
	out.Fanout = append(out.Fanout, dirty.Fanout...)
	out.ReflectorCost = append(out.ReflectorCost, dirty.ReflectorCost...)
	out.SrcRefCost = append(out.SrcRefCost, dirty.SrcRefCost...)
	out.SrcRefLoss = append(out.SrcRefLoss, dirty.SrcRefLoss...)

	// Repriced member arcs: re-sum their units' cached member costs first,
	// so the rescaling below reads current sums.
	for _, arc := range dirty.RefSinkCost {
		st.sumCost(in, arc.A, st.unitOf[arc.B])
	}

	// Demand churn: re-summarize each touched unit once, in unit order.
	touched := make([]bool, len(st.memberUnits))
	var aus []int
	for _, j := range dirty.SinkDemand {
		if au := st.unitOf[j]; !touched[au] {
			touched[au] = true
			aus = append(aus, au)
		}
	}
	sort.Ints(aus)
	for _, au := range aus {
		thrChanged, wChanged := st.refreshDemand(in, au)
		if thrChanged {
			out.SinkDemand = append(out.SinkDemand, au)
		}
		if wChanged {
			out.SinkWeight = append(out.SinkWeight, au)
			if s := math.Max(a.UnitWeight[au], 1); s != st.scale[au] {
				st.scale[au] = s
				for i := 0; i < R; i++ {
					if st.refreshCost(i, au) {
						out.RefSinkCost = append(out.RefSinkCost, netmodel.Arc{A: i, B: au})
					}
				}
			}
		}
	}

	// Arc-level churn on the aggregated sink plane.
	for _, arc := range dirty.RefSinkCost {
		au := st.unitOf[arc.B]
		if st.refreshCost(arc.A, au) {
			out.RefSinkCost = append(out.RefSinkCost, netmodel.Arc{A: arc.A, B: au})
		}
	}
	for _, arc := range dirty.RefSinkLoss {
		au := st.unitOf[arc.B]
		if st.refreshLoss(in, arc.A, au) {
			out.RefSinkLoss = append(out.RefSinkLoss, netmodel.Arc{A: arc.A, B: au})
		}
	}
	return out
}

// Disaggregate maps a solved aggregate design back to the true instance:
// every active member subscription is served from its aggregate unit's
// serving reflectors — previous-epoch arcs first (stickiness), then by
// descending capped weight, ties to the lower index — accumulating until the
// member's FULL weight demand is met or the candidates run out. Because the
// representative's demand dominates each member's while each member's path
// weights dominate the representative's, a reflector set that covered the
// aggregate covers every member; and because at most weight-many members
// share each serving arc, the true fanout use never exceeds what the
// aggregate LP reserved. Serving an arc also marks its stream ingested and
// its reflector built (Design.Normalize's closure, applied as it goes).
// prev may be nil (first epoch).
//
// A member's demand costs a logarithm only when its threshold differs from
// the previous member's, and each candidate the accumulation weighs costs
// one: a previous arc is always weighed, a new one only when the previous
// arcs fall short of the demand.
func (st *State) Disaggregate(in *netmodel.Instance, aggDesign *netmodel.Design, prev *netmodel.Design) *netmodel.Design {
	_, R, _ := in.Dims()
	d := netmodel.NewDesign(in)
	copy(d.Build, aggDesign.Build)
	for k := range d.Ingest {
		copy(d.Ingest[k], aggDesign.Ingest[k])
		for i, y := range d.Ingest[k] {
			if y {
				d.Build[i] = true
			}
		}
	}
	var cand []int
	var ord []weighed
	lastPhi, need := math.NaN(), 0.0
	for au, mus := range st.memberUnits {
		cand = cand[:0]
		for i := 0; i < R; i++ {
			if aggDesign.Serve[i][au] {
				cand = append(cand, i)
			}
		}
		if len(cand) == 0 {
			continue
		}
		for _, j := range mus {
			phi := in.Threshold[j]
			if phi <= 0 {
				continue
			}
			if phi != lastPhi {
				lastPhi, need = phi, in.Demand(j)
			}
			// Previous arcs first, then the rest: within each group the
			// order is weight descending, index ascending.
			got := 0.0
			for _, sticky := range [2]bool{true, false} {
				if got >= need-1e-12 {
					break
				}
				ord = ord[:0]
				for _, i := range cand {
					if in.ArcAllowed(i, j) && (prev != nil && prev.Serve[i][j]) == sticky {
						ord = insertWeighed(ord, weighed{i, in.CappedWeightFor(i, j, need)})
					}
				}
				for _, c := range ord {
					if got >= need-1e-12 {
						break
					}
					d.Serve[c.i][j] = true
					d.Ingest[in.Commodity[j]][c.i] = true
					d.Build[c.i] = true
					got += c.w
				}
			}
		}
	}
	return d
}

// weighed is a disaggregation candidate: reflector i and its capped weight
// toward the member being served.
type weighed struct {
	i int
	w float64
}

// insertWeighed inserts c into ord, which is sorted by weight descending and
// index ascending, keeping that order. Candidate lists hold a unit's few
// serving reflectors, so insertion beats a general sort and allocates
// nothing once ord has grown.
func insertWeighed(ord []weighed, c weighed) []weighed {
	ord = append(ord, c)
	x := len(ord) - 1
	for x > 0 && (c.w > ord[x-1].w || c.w == ord[x-1].w && c.i < ord[x-1].i) {
		ord[x] = ord[x-1]
		x--
	}
	ord[x] = c
	return ord
}

func zeroMatrix(rows, cols int) [][]float64 {
	m := make([][]float64, rows)
	backing := make([]float64, rows*cols)
	for i := range m {
		m[i], backing = backing[:cols:cols], backing[cols:]
	}
	return m
}
