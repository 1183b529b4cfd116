package netmodel

// Multi-stream sinks. §2 of the paper assumes WLOG that every sink demands
// exactly one stream — "a sink wanting several streams is split into one
// copy per stream". That trick is sound for the static LP but wrong for
// everything built on top of it: churn accounting, stickiness, SLO windows
// and shard partitions all acted on the copies instead of the real sink.
//
// This file makes the grouping first-class. The instance's sink axis keeps
// its meaning as DEMAND UNITS — one (sink, stream) subscription per column,
// exactly the paper's copies, so every solver stage keeps its shape — and
// SinkOf records which physical sink (a "viewer" below, to keep the two
// axes unambiguous) each unit belongs to. A multi-stream sink is then a
// contiguous run of units sharing a SinkOf value: its stream demand set.
// Layers that care about real sinks read the grouping:
//
//   - lpmodel adds shared physical-arc capacity rows per (reflector,
//     viewer) — coupling the §6.3 EdgeCap across a sink's streams, which
//     the copy-split cannot express;
//   - shard partitions viewers atomically, so one sink's streams never
//     straddle shards, and it and agg key viewers by their bundle's cost
//     anchor (CostAnchors);
//   - live/core report fractional viewer churn (a 3-stream sink switching
//     one stream churns 1/3 of a viewer, not a whole one) and viewer-level
//     audit counts.
//
// SplitStreams is the WLOG made executable: it forgets the grouping,
// producing the paper's copy-split instance. The golden tests assert the
// native LP equals the copy-split LP cell for cell (they differ only by the
// shared-capacity rows, absent without EdgeCap), so the paper's reduction
// holds as a tested theorem rather than a modeling assumption.

import (
	"fmt"
	"math"
	"sort"
)

// MultiStream reports whether the instance carries a sink grouping (some
// viewer may demand several streams). Without one, every demand unit is its
// own viewer and all viewer-level accessors degrade to the unit view.
func (in *Instance) MultiStream() bool { return in.SinkOf != nil }

// NumViewers returns the number of physical sinks (viewers). Equal to
// NumSinks when the instance has no grouping.
func (in *Instance) NumViewers() int {
	if in.SinkOf == nil {
		return in.NumSinks
	}
	if len(in.SinkOf) == 0 {
		return 0
	}
	return in.SinkOf[len(in.SinkOf)-1] + 1
}

// Viewer returns the physical sink that demand unit j belongs to.
func (in *Instance) Viewer(j int) int {
	if in.SinkOf == nil {
		return j
	}
	return in.SinkOf[j]
}

// ViewerRange returns the half-open unit range [lo, hi) of viewer g
// (Validate guarantees a viewer's units are contiguous and ascending).
func (in *Instance) ViewerRange(g int) (lo, hi int) {
	if in.SinkOf == nil {
		return g, g + 1
	}
	lo = sort.SearchInts(in.SinkOf, g)
	hi = sort.SearchInts(in.SinkOf, g+1)
	return lo, hi
}

// ViewerUnits returns, per viewer, the demand units that belong to it.
func (in *Instance) ViewerUnits() [][]int {
	out := make([][]int, in.NumViewers())
	for j := 0; j < in.NumSinks; j++ {
		g := in.Viewer(j)
		out[g] = append(out[g], j)
	}
	return out
}

// FindUnit returns the demand unit of viewer g subscribing to stream k, or
// -1 when g has no slot for k. Validate guarantees at most one such unit.
func (in *Instance) FindUnit(g, k int) int {
	lo, hi := in.ViewerRange(g)
	for j := lo; j < hi; j++ {
		if in.Commodity[j] == k {
			return j
		}
	}
	return -1
}

// CostAnchors returns each viewer's cost anchor: the reflector that serves
// its whole stream bundle cheapest, ties to the lowest index. On a
// region-clustered topology the cheapest reflector is intra-region, so the
// anchor is the region signal both the aggregation fold (internal/agg) and
// the shard partition (internal/shard) key on. It reads costs only, never
// thresholds, so sink churn does not move it. One row-major pass per
// reflector sums each viewer's bundle cost, adding its units in ascending
// order.
func (in *Instance) CostAnchors() []int {
	G := in.NumViewers()
	anchor := make([]int, G)
	bestC := make([]float64, G)
	for g := range bestC {
		bestC[g] = math.Inf(1)
	}
	bundle := make([]float64, G)
	for i, row := range in.RefSinkCost {
		clear(bundle)
		for j, c := range row {
			bundle[in.Viewer(j)] += c
		}
		for g, c := range bundle {
			if c < bestC[g] {
				anchor[g], bestC[g] = i, c
			}
		}
	}
	return anchor
}

// validateSinkOf checks the grouping invariants: one entry per demand unit,
// dense contiguous viewer ids (nondecreasing, starting at 0, steps of at
// most 1 — so a viewer's units form one ascending run), distinct streams
// within a viewer, and §6.3 edge capacities constant across a viewer's
// units (the capacity is a property of the physical reflector→sink arc, not
// of any one stream flowing over it).
func (in *Instance) validateSinkOf() error {
	if in.SinkOf == nil {
		return nil
	}
	D := in.NumSinks
	if len(in.SinkOf) != D {
		return fmt.Errorf("netmodel: SinkOf has %d entries, want %d", len(in.SinkOf), D)
	}
	if in.SinkOf[0] != 0 {
		return fmt.Errorf("netmodel: SinkOf must start at viewer 0, got %d", in.SinkOf[0])
	}
	for j := 1; j < D; j++ {
		if step := in.SinkOf[j] - in.SinkOf[j-1]; step < 0 || step > 1 {
			return fmt.Errorf("netmodel: SinkOf not contiguous at unit %d (%d after %d)", j, in.SinkOf[j], in.SinkOf[j-1])
		}
	}
	lo := 0
	for j := 1; j <= D; j++ {
		if j < D && in.SinkOf[j] == in.SinkOf[lo] {
			continue
		}
		for a := lo; a < j; a++ {
			for b := a + 1; b < j; b++ {
				if in.Commodity[a] == in.Commodity[b] {
					return fmt.Errorf("netmodel: viewer %d subscribes to stream %d twice (units %d, %d)",
						in.SinkOf[lo], in.Commodity[a], a, b)
				}
			}
		}
		if in.EdgeCap != nil {
			for i := range in.EdgeCap {
				for a := lo + 1; a < j; a++ {
					if in.EdgeCap[i][a] != in.EdgeCap[i][lo] {
						return fmt.Errorf("netmodel: viewer %d has differing edge caps %g vs %g at reflector %d (units %d, %d)",
							in.SinkOf[lo], in.EdgeCap[i][lo], in.EdgeCap[i][a], i, lo, a)
					}
				}
			}
		}
		lo = j
	}
	return nil
}

// SplitStreams applies the paper's §2 WLOG in executable form: it returns a
// copy of the instance with the sink grouping forgotten, so every demand
// unit becomes an independent single-stream sink — exactly the copy-split
// instance the paper's LP is stated over. Unit indices are unchanged, so a
// native solution and a copy-split solution are comparable cell for cell.
//
// The transform is lossless for the LP except for one thing the copies
// cannot express: the shared §6.3 capacity of a physical reflector→sink arc
// (each copy gets its own private cap). The golden equivalence tests pin
// native ≡ split on instances without edge caps, and pin the strict gap on
// instances where the shared cap binds.
func (in *Instance) SplitStreams() *Instance {
	out := in.Clone()
	out.SinkOf = nil
	if in.MultiStream() {
		out.Name = in.Name + "/split"
	}
	return out
}

// Churn is how far a design moved from the one deployed before it.
type Churn struct {
	// Arcs counts serve cells that differ; Reflectors counts reflectors
	// whose build state flipped.
	Arcs, Reflectors int
	// Streams counts demand units whose serving reflector set changed.
	// Viewers sums, per viewer, the CHANGED FRACTION of its relevant units:
	// a 3-stream sink that re-pulls one stream contributes 1/3, where the
	// copy-split view would have charged a full viewer. A unit is relevant
	// when it is actively subscribed (positive threshold) or its service
	// changed (covers full leaves, whose thresholds are already 0).
	Streams int
	Viewers float64
}

// DesignChurn compares two designs on the same instance in one row-major
// pass over their serve matrices. Both must be non-nil; a caller with no
// previous deployment reports no churn.
func DesignChurn(in *Instance, prev, next *Design) Churn {
	_, R, D := in.Dims()
	var c Churn
	changed := make([]bool, D)
	for i := 0; i < R; i++ {
		if prev.Build[i] != next.Build[i] {
			c.Reflectors++
		}
		p, n := prev.Serve[i][:D], next.Serve[i][:D]
		for j, x := range p {
			if x != n[j] {
				c.Arcs++
				changed[j] = true
			}
		}
	}
	lo := 0
	for j := 0; j <= D; j++ {
		if j < D && in.Viewer(j) == in.Viewer(lo) {
			continue
		}
		ch, rel := 0, 0
		for u := lo; u < j; u++ {
			if changed[u] {
				ch++
			}
			if changed[u] || in.Threshold[u] > 0 {
				rel++
			}
		}
		if ch > 0 {
			c.Streams += ch
			c.Viewers += float64(ch) / float64(rel)
		}
		lo = j
	}
	return c
}

// ActiveViewers counts viewers with at least one active subscription.
func (in *Instance) ActiveViewers() int {
	n, lo := 0, 0
	D := in.NumSinks
	for j := 0; j <= D; j++ {
		if j < D && in.Viewer(j) == in.Viewer(lo) {
			continue
		}
		for u := lo; u < j; u++ {
			if in.Threshold[u] > 0 {
				n++
				break
			}
		}
		lo = j
	}
	return n
}
