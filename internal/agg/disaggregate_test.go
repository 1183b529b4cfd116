package agg

import (
	"fmt"
	"sort"
	"testing"

	"repro/internal/netmodel"
	"repro/internal/stats"
)

// referenceDisaggregate is Disaggregate as a general sort states it: each
// active member orders all its unit's serving reflectors by previous arc
// first, then capped weight descending, then index ascending, serves them in
// that order until its demand is met, and Normalize closes the design.
func referenceDisaggregate(st *State, in *netmodel.Instance, aggDesign, prev *netmodel.Design) *netmodel.Design {
	_, R, _ := in.Dims()
	d := netmodel.NewDesign(in)
	copy(d.Build, aggDesign.Build)
	for k := range d.Ingest {
		copy(d.Ingest[k], aggDesign.Ingest[k])
	}
	var cand, ord []int
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
			if in.Threshold[j] <= 0 {
				continue
			}
			ord = append(ord[:0], cand...)
			sort.SliceStable(ord, func(x, y int) bool {
				a, b := ord[x], ord[y]
				pa := prev != nil && prev.Serve[a][j]
				pb := prev != nil && prev.Serve[b][j]
				if pa != pb {
					return pa
				}
				wa, wb := in.CappedWeight(a, j), in.CappedWeight(b, j)
				if wa != wb {
					return wa > wb
				}
				return a < b
			})
			need := in.Demand(j)
			got := 0.0
			for _, i := range ord {
				if got >= need-1e-12 {
					break
				}
				if !in.ArcAllowed(i, j) {
					continue
				}
				d.Serve[i][j] = true
				got += in.CappedWeight(i, j)
			}
		}
	}
	d.Normalize(in)
	return d
}

// sameDesign reports the first cell where two designs differ.
func sameDesign(got, want *netmodel.Design) error {
	for i := range want.Build {
		if got.Build[i] != want.Build[i] {
			return fmt.Errorf("Build[%d] = %v, want %v", i, got.Build[i], want.Build[i])
		}
	}
	for k := range want.Ingest {
		for i := range want.Ingest[k] {
			if got.Ingest[k][i] != want.Ingest[k][i] {
				return fmt.Errorf("Ingest[%d][%d] = %v, want %v", k, i, got.Ingest[k][i], want.Ingest[k][i])
			}
		}
	}
	for i := range want.Serve {
		for j := range want.Serve[i] {
			if got.Serve[i][j] != want.Serve[i][j] {
				return fmt.Errorf("Serve[%d][%d] = %v, want %v", i, j, got.Serve[i][j], want.Serve[i][j])
			}
		}
	}
	return nil
}

// randomServe draws a design on in with each serve cell set with
// probability p and random build and ingest bits, so the implication
// closure may not hold.
func randomServe(in *netmodel.Instance, rng *stats.RNG, p float64) *netmodel.Design {
	d := netmodel.NewDesign(in)
	for i := range d.Serve {
		d.Build[i] = rng.Bernoulli(0.5)
		for k := range d.Ingest {
			d.Ingest[k][i] = rng.Bernoulli(0.3)
		}
		for j := range d.Serve[i] {
			d.Serve[i][j] = rng.Bernoulli(p)
		}
	}
	return d
}

// TestDisaggregateMatchesSortReference locks Disaggregate to the sort-based
// reference on random aggregate designs (structure possibly broken), random
// or chained previous designs, mixed thresholds, and edge caps below 1.
func TestDisaggregateMatchesSortReference(t *testing.T) {
	rng := stats.NewRNG(5150)
	served := 0
	for trial := 0; trial < 60; trial++ {
		in := clustered(t, 1+trial%2, uint64(100+trial))
		thresholds := []float64{0, 0.8, 0.9, 0.95, 0.99}
		for j := range in.Threshold {
			in.Threshold[j] = thresholds[rng.Intn(len(thresholds))]
		}
		if trial%3 != 0 {
			caps := []float64{0, 0.5, 1, 2, 2, 2}
			in.EdgeCap = make([][]float64, in.NumReflectors)
			for i := range in.EdgeCap {
				in.EdgeCap[i] = make([]float64, in.NumSinks)
				for g := 0; g < in.NumViewers(); g++ {
					lo, hi := in.ViewerRange(g)
					c := caps[rng.Intn(len(caps))]
					for j := lo; j < hi; j++ {
						in.EdgeCap[i][j] = c
					}
				}
			}
		}
		if err := in.Validate(); err != nil {
			t.Fatal(err)
		}
		st, err := Build(in, Config{})
		if err != nil {
			t.Fatal(err)
		}
		var prev *netmodel.Design
		if trial%4 == 1 {
			prev = randomServe(in, rng, 0.3)
		}
		for epoch := 0; epoch < 3; epoch++ {
			ad := randomServe(st.Agg, rng, []float64{0.2, 0.5, 0.9}[rng.Intn(3)])
			want := referenceDisaggregate(st, in, ad, prev)
			got := st.Disaggregate(in, ad, prev)
			if err := sameDesign(got, want); err != nil {
				t.Fatalf("trial %d epoch %d (prev nil: %v): %v", trial, epoch, prev == nil, err)
			}
			for i := range got.Serve {
				for _, x := range got.Serve[i] {
					if x {
						served++
					}
				}
			}
			prev = got
		}
	}
	if served == 0 {
		t.Fatal("no trial served an arc")
	}
}
