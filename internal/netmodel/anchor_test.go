package netmodel_test

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"repro/internal/gen"
	"repro/internal/netmodel"
)

// columnAnchors is the column-major anchor pass CostAnchors replaced, kept
// as the reference: per viewer, per reflector, the sum of the bundle's unit
// costs in ViewerUnits order, keeping the first strictly smallest sum.
func columnAnchors(in *netmodel.Instance) []int {
	_, R, _ := in.Dims()
	units := in.ViewerUnits()
	out := make([]int, len(units))
	for g, us := range units {
		best, bestC := 0, math.Inf(1)
		for i := 0; i < R; i++ {
			c := 0.0
			for _, j := range us {
				c += in.RefSinkCost[i][j]
			}
			if c < bestC {
				best, bestC = i, c
			}
		}
		out[g] = best
	}
	return out
}

// handBuilt returns an instance with one reflector row per entry of costs
// (each row one cost per demand unit) and the given sink grouping (nil: one
// unit per viewer).
func handBuilt(costs [][]float64, sinkOf []int) *netmodel.Instance {
	in := netmodel.NewZeroInstance(1, len(costs), len(costs[0]))
	for i, row := range costs {
		copy(in.RefSinkCost[i], row)
	}
	in.SinkOf = sinkOf
	return in
}

// TestCostAnchorsMatchColumnReference pins the row-major CostAnchors pass to
// the column-major reference viewer for viewer, on generated single- and
// multi-stream instances and on hand-built instances whose anchors are
// known: exact ties (the lower index wins), all-zero cost rows, and a
// 2-stream viewer whose bundle anchor is neither of its units' cheapest
// reflectors.
func TestCostAnchorsMatchColumnReference(t *testing.T) {
	check := func(t *testing.T, in *netmodel.Instance) []int {
		t.Helper()
		got, want := in.CostAnchors(), columnAnchors(in)
		if !slices.Equal(got, want) {
			t.Fatalf("CostAnchors %v, column reference %v", got, want)
		}
		return got
	}
	for seed := uint64(1); seed <= 20; seed++ {
		multi := func(streams int) *netmodel.Instance {
			cc := gen.DefaultClustered(3, 3, 2, 5)
			cc.StreamsPerSink = streams
			return gen.Clustered(cc, seed)
		}
		for name, in := range map[string]*netmodel.Instance{
			"uniform":   gen.Uniform(gen.DefaultUniform(2, 7, 15), seed),
			"clustered": gen.Clustered(gen.DefaultClustered(2, 3, 2, 6), seed),
			"2-stream":  multi(2),
			"3-stream":  multi(3),
		} {
			t.Run(fmt.Sprintf("%s/seed-%d", name, seed), func(t *testing.T) {
				check(t, in)
			})
		}
	}

	for _, tc := range []struct {
		name   string
		costs  [][]float64
		sinkOf []int
		want   []int
	}{
		// Viewer 0 ties at reflectors 0 and 1, viewer 1 at 1 and 2, and the
		// 2-stream viewer 2 at 0 and 2 (0.25+0.75 = 0.5+0.5 exactly).
		{"ties", [][]float64{
			{1.5, 2, 0.25, 0.75},
			{1.5, 1, 3, 3},
			{4, 1, 0.5, 0.5},
		}, []int{0, 1, 2, 2}, []int{0, 1, 0}},
		{"all-zero", [][]float64{{0, 0, 0}, {0, 0, 0}, {0, 0, 0}}, []int{0, 0, 1}, []int{0, 0}},
		{"zero-row", [][]float64{{1, 2, 3}, {0, 0, 0}, {0, 0, 0}}, nil, []int{1, 1, 1}},
		// Unit 0 is cheapest at reflector 0 and unit 1 at reflector 1, but
		// the bundle is cheapest at reflector 2 (6 against 11).
		{"bundle", [][]float64{{1, 10}, {10, 1}, {3, 3}}, []int{0, 0}, []int{2}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			in := handBuilt(tc.costs, tc.sinkOf)
			if got := check(t, in); !slices.Equal(got, tc.want) {
				t.Fatalf("anchors %v, want %v", got, tc.want)
			}
		})
	}
}
