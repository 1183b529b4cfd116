package daemon

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/agg"
	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/netmodel"
	"repro/internal/stats"
)

// footprint is the serving benchmark's overlayd instance: a 10^4-viewer
// clustered footprint (6 regions × 5 ISPs × 1,667 viewers, footprint seed 1)
// with colors stripped, and about a fifth of the viewers, drawn from the
// seed, not joined.
func footprint(base *netmodel.Instance, seed uint64) *netmodel.Instance {
	in := base.Clone()
	rng := stats.NewRNG(seed ^ 0xd43c0)
	for j := range in.Threshold {
		if !rng.Bernoulli(0.8) {
			in.Threshold[j] = 0
		}
	}
	return in
}

// footprintDeltas draws the benchmark's delta stream for seed: each delta
// flips three distinct viewers between joined and left, and every fifth
// also reprices one reflector→viewer arc.
func footprintDeltas(t *testing.T, in *netmodel.Instance, seed uint64, threshold float64, n int) []netmodel.Delta {
	t.Helper()
	rng := stats.NewRNG(seed ^ 0xde17a)
	replay := in.Clone()
	out := make([]netmodel.Delta, 0, n)
	for k := 1; k <= n; k++ {
		d := netmodel.Delta{Note: fmt.Sprintf("benchmark delta %d", k)}
		for len(d.SetThreshold) < 3 {
			j := rng.Intn(replay.NumSinks)
			dup := false
			for _, e := range d.SetThreshold {
				dup = dup || e.Sink == j
			}
			if dup {
				continue
			}
			v := threshold
			if replay.Threshold[j] > 0 {
				v = 0
			}
			d.SetThreshold = append(d.SetThreshold, netmodel.SinkValue{Sink: j, Value: v})
		}
		if k%5 == 0 {
			d.ScaleRefSinkCost = append(d.ScaleRefSinkCost, netmodel.ArcValue{
				A: rng.Intn(replay.NumReflectors), B: rng.Intn(replay.NumSinks), Value: rng.Range(0.9, 1.1)})
		}
		if _, err := d.Apply(replay); err != nil {
			t.Fatal(err)
		}
		out = append(out, d)
	}
	return out
}

// TestFootprintSolvesWithoutRecovery locks overlayd's cold start on the
// serving benchmark's footprint: the aggregated LP mixes aggregate unit
// loads of O(10^3) with fanout coefficients of O(10), and only row scaling
// lets its cold simplex succeed on its one attempt. Per seed: New (the cold
// epoch 0), SolveNow with nothing queued (epoch 1), then five batches of
// five of the benchmark's deltas. No solve may fail, no warm start may fall
// back, and epoch 1 must be offered epoch 0's basis and finish warm.
func TestFootprintSolvesWithoutRecovery(t *testing.T) {
	const regions, isps, perRegion = 6, 5, 1667
	const batches, perBatch = 5, 5
	seeds := 20
	if raceEnabled {
		seeds = 3
	}
	shape := gen.DefaultClustered(2, regions, isps, perRegion)
	base := gen.Clustered(shape, 1)
	base.Color, base.NumColors = nil, 0
	cfg := Config{Stickiness: 0.4, Pressure: -1}
	cfg.Solver = core.DefaultOptions(1)
	cfg.Solver.Aggregate = &agg.Config{}
	for seed := uint64(501); seed < 501+uint64(seeds); seed++ {
		in := footprint(base, seed)
		deltas := footprintDeltas(t, in, seed, shape.Threshold, batches*perBatch)
		start := time.Now()
		d, err := New(in, cfg)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		cold := time.Since(start)
		infos := []EpochInfo{d.Status().Last}
		for b := 0; b <= batches; b++ {
			if b > 0 {
				if _, _, err := d.Ingest(deltas[(b-1)*perBatch : b*perBatch]); err != nil {
					t.Fatalf("seed %d batch %d: %v", seed, b, err)
				}
			}
			info, err := d.SolveNow()
			if err != nil {
				t.Fatalf("seed %d epoch %d: %v", seed, info.Epoch, err)
			}
			infos = append(infos, info)
		}
		for _, info := range infos {
			if info.WarmFallbacks != 0 {
				t.Errorf("seed %d epoch %d: %d warm fallbacks, want none",
					seed, info.Epoch, info.WarmFallbacks)
			}
			if !info.AuditOK {
				t.Errorf("seed %d epoch %d: audit failed", seed, info.Epoch)
			}
		}
		if e1 := infos[1]; !e1.LPWarmOffered || !e1.LPWarm {
			t.Errorf("seed %d: epoch 1 offered a basis %v, finished warm %v; want both",
				seed, e1.LPWarmOffered, e1.LPWarm)
		}
		t.Logf("seed %d: New %v (epoch 0 lp-solve %v, %d pivots), epoch 1 lp-solve %v (%d pivots)",
			seed, cold.Round(time.Millisecond),
			time.Duration(infos[0].StageWallNS["lp-solve"]).Round(time.Millisecond), infos[0].Pivots,
			time.Duration(infos[1].StageWallNS["lp-solve"]).Round(time.Millisecond), infos[1].Pivots)
	}
}
