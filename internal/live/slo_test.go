package live

import (
	"reflect"
	"testing"

	"repro/internal/obs"
	"repro/internal/stats"
)

// refSeries is the append-based reference for one SLO series: it keeps
// every verdict and counts the trailing window afresh each epoch.
type refSeries struct{ hist []bool }

// observe appends the verdict of the units keyOf maps to key (every unit
// when keyOf is nil) and returns their active and met counts and the ok
// fraction of the trailing window.
func (r *refSeries) observe(window int, target float64, keyOf []int, key int, thresholds []float64, met []bool) (active, metN int, frac float64) {
	for j, thr := range thresholds {
		if keyOf != nil && keyOf[j] != key {
			continue
		}
		if thr > 0 {
			active++
			if met[j] {
				metN++
			}
		}
	}
	r.hist = append(r.hist, active == 0 || float64(metN) >= target*float64(active)-1e-9)
	tail := r.hist[max(0, len(r.hist)-window):]
	ok := 0
	for _, v := range tail {
		if v {
			ok++
		}
	}
	return active, metN, float64(ok) / float64(len(tail))
}

// TestSLOTrackerMatchesAppendReference: over ten windows of random verdicts
// the tracker reports every epoch exactly as the append-based reference
// does, globally, per region and per stream, while no series holds more
// than Window verdicts.
func TestSLOTrackerMatchesAppendReference(t *testing.T) {
	const window, units, regions, streams, target = 5, 12, 3, 2, 0.6
	sinkRegion := make([]int, units)
	commodity := make([]int, units)
	for j := range sinkRegion {
		sinkRegion[j] = j % regions
		commodity[j] = (j / regions) % streams
	}
	tr := NewSLOTracker(window, target, sinkRegion, commodity)
	var all refSeries
	regs := make([]refSeries, regions)
	strs := make([]refSeries, streams)
	breaches, minFrac := 0, 1.0
	rng := stats.NewRNG(7)
	for e := 0; e < 10*window; e++ {
		thresholds := make([]float64, units)
		met := make([]bool, units)
		for j := range thresholds {
			if rng.Bernoulli(0.6) {
				thresholds[j] = 0.9
			}
			met[j] = rng.Bernoulli(0.7)
		}
		got := tr.Observe(thresholds, met)

		_, _, frac := all.observe(window, target, nil, 0, thresholds, met)
		want := SLOEpoch{Ok: all.hist[e], WindowFrac: frac}
		if !want.Ok {
			breaches++
		}
		minFrac = min(minFrac, frac)
		for r := range regs {
			a, m, f := regs[r].observe(window, target, sinkRegion, r, thresholds, met)
			want.Regions = append(want.Regions, obs.RegionSLO{Region: r, Active: a, Met: m, Frac: metFrac(a, m), WindowFrac: f})
		}
		for k := range strs {
			a, m, f := strs[k].observe(window, target, commodity, k, thresholds, met)
			want.Streams = append(want.Streams, obs.StreamSLO{Stream: k, Active: a, Met: m, Frac: metFrac(a, m), WindowFrac: f})
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("epoch %d:\ngot  %+v\nwant %+v", e, got, want)
		}
		if tr.Breaches() != breaches || tr.MinWindowFrac() != minFrac {
			t.Fatalf("epoch %d: breaches %d, min window %g; want %d, %g", e, tr.Breaches(), tr.MinWindowFrac(), breaches, minFrac)
		}
		for _, h := range append(append([][]bool{tr.okHist}, tr.regHist...), tr.strHist...) {
			if len(h) > window {
				t.Fatalf("epoch %d: a history holds %d verdicts, window %d", e, len(h), window)
			}
		}
	}
}

func metFrac(active, met int) float64 {
	if active == 0 {
		return 1
	}
	return float64(met) / float64(active)
}
