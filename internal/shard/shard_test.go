package shard_test

import (
	"fmt"
	"reflect"
	"sort"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/netmodel"
	"repro/internal/shard"
	"repro/internal/stats"
)

// shardCostBound is the property-tested optimality gap: on randomized
// clustered instances the sharded design's audited cost stays within this
// factor of the monolithic design's. The corpus deliberately stresses
// adversarially tiny shards (3–6 sinks each), where duplicated builds the
// consolidation pass cannot evacuate weigh heaviest; the measured worst
// over the 50 seeds is 1.235x, and at production shard sizes the ratio
// drops to ~1x or below (see the S1 experiment). The margin also absorbs
// randomized-rounding variance, which cuts both ways — sharded solves beat
// the monolith outright on many seeds.
const shardCostBound = 1.30

func solveBoth(t *testing.T, in *netmodel.Instance, shards int, seed uint64) (mono, sharded *core.Result) {
	t.Helper()
	opts := core.DefaultOptions(seed)
	opts.RepairCoverage = true
	mono, err := core.Solve(in, opts)
	if err != nil {
		t.Fatalf("monolithic solve: %v", err)
	}
	opts.Shards = shards
	sharded, err = core.Solve(in, opts)
	if err != nil {
		t.Fatalf("sharded solve (k=%d): %v", shards, err)
	}
	return mono, sharded
}

// TestShardedPropertyVsMonolithic is the randomized property harness of the
// sharded path: across ≥50 seeded gen.Clustered instances (random shapes,
// random shard counts), the sharded solve must produce a design that passes
// the same audit as the monolithic solve — structure constraints hold, the
// paper's W/4+4F guarantee holds, and with the repair pass every demanding
// sink is fully served — at a cost within shardCostBound of the monolithic
// design. Failures print the seed so a run can be replayed exactly.
func TestShardedPropertyVsMonolithic(t *testing.T) {
	const instances = 50
	worst := 0.0
	worstSeed := uint64(0)
	for trial := 0; trial < instances; trial++ {
		seed := uint64(1000 + trial*7919)
		rng := stats.NewRNG(seed)
		cfg := gen.DefaultClustered(
			1+rng.Intn(3), // sources
			2+rng.Intn(3), // regions
			2+rng.Intn(2), // ISPs
			3+rng.Intn(6), // sinks per region
		)
		// Headroom so the repair pass can top every sink up to full demand
		// even after the capacity split.
		cfg.Fanout = cfg.Fanout * 2
		in := gen.Clustered(cfg, seed)
		k := 2 + int(seed%3)

		mono, sharded := solveBoth(t, in, k, seed)
		replay := fmt.Sprintf("seed=%d shards=%d instance=%s", seed, k, in.Name)

		if sharded.ShardInfo == nil || sharded.ShardInfo.Fallback {
			t.Errorf("%s: sharded solve fell back to monolithic", replay)
			continue
		}
		a := sharded.Audit
		if !a.StructureOK {
			t.Errorf("%s: merged design violates structure constraints", replay)
		}
		if !core.MeetsGuarantee(a, sharded.PathRounding) {
			t.Errorf("%s: merged design misses the paper guarantee: %v", replay, a)
		}
		if a.MetDemand != a.Sinks {
			t.Errorf("%s: sharded+repair left %d/%d sinks short of full demand",
				replay, a.Sinks-a.MetDemand, a.Sinks)
		}
		ratio := a.Cost / mono.Audit.Cost
		if ratio > worst {
			worst, worstSeed = ratio, seed
		}
		if ratio > shardCostBound {
			t.Errorf("%s: sharded cost %.4f vs monolithic %.4f = %.3fx > %.2fx bound",
				replay, a.Cost, mono.Audit.Cost, ratio, shardCostBound)
		}
	}
	t.Logf("worst sharded/monolithic cost ratio over %d instances: %.3fx (seed %d, bound %.2fx)",
		instances, worst, worstSeed, shardCostBound)
}

// TestShardedDeterminism pins the reproducibility contract: the same seed
// and shard count must yield the identical total cost (and pivot count) on
// every run, regardless of goroutine scheduling in the parallel solve.
func TestShardedDeterminism(t *testing.T) {
	in := gen.Clustered(gen.DefaultClustered(2, 3, 2, 6), 42)
	opts := core.DefaultOptions(7)
	opts.Shards = 3
	var costs []float64
	var pivots []int
	for run := 0; run < 5; run++ {
		res, err := core.Solve(in, opts)
		if err != nil {
			t.Fatal(err)
		}
		costs = append(costs, res.Audit.Cost)
		pivots = append(pivots, res.LPPivots)
	}
	for run := 1; run < 5; run++ {
		if costs[run] != costs[0] {
			t.Fatalf("run %d cost %v differs from run 0 cost %v", run, costs[run], costs[0])
		}
		if pivots[run] != pivots[0] {
			t.Fatalf("run %d pivots %d differ from run 0 pivots %d", run, pivots[run], pivots[0])
		}
	}
	t.Logf("5 runs, identical cost %.4f and pivots %d", costs[0], pivots[0])
}

// TestShardedConcurrentStress runs several complete sharded solves of the
// same instance concurrently — shared read-only instance, each solve itself
// fanning out per-shard goroutines — and checks every solve lands on the
// identical cost. Under `go test -race` (the CI race job) this doubles as
// the data-race check for the parallel shard machinery.
func TestShardedConcurrentStress(t *testing.T) {
	in := gen.Clustered(gen.DefaultClustered(2, 3, 2, 5), 11)
	const solvers = 4
	costs := make([]float64, solvers)
	errs := make([]error, solvers)
	var wg sync.WaitGroup
	wg.Add(solvers)
	for g := 0; g < solvers; g++ {
		go func(g int) {
			defer wg.Done()
			opts := core.DefaultOptions(5)
			opts.Shards = 3
			res, err := core.Solve(in, opts)
			if err != nil {
				errs[g] = err
				return
			}
			costs[g] = res.Audit.Cost
		}(g)
	}
	wg.Wait()
	for g := 0; g < solvers; g++ {
		if errs[g] != nil {
			t.Fatalf("solver %d: %v", g, errs[g])
		}
		if costs[g] != costs[0] {
			t.Fatalf("solver %d cost %v differs from solver 0 cost %v", g, costs[g], costs[0])
		}
	}
}

// singleStreamPartition is the reference partition of a single-stream
// instance: each sink's anchor is its cheapest serving reflector (strict <
// from reflector 0), sinks are ordered by (anchor, id), and the order is cut
// at (s+1)·D/k. TestPartitionSinksSingleStreamReference holds the viewer
// partition to it.
func singleStreamPartition(in *netmodel.Instance, k int) [][]int {
	_, R, D := in.Dims()
	if k > D {
		k = D
	}
	if k < 1 {
		k = 1
	}
	anchor := make([]int, D)
	for j := 0; j < D; j++ {
		best, bestC := 0, in.RefSinkCost[0][j]
		for i := 1; i < R; i++ {
			if c := in.RefSinkCost[i][j]; c < bestC {
				best, bestC = i, c
			}
		}
		anchor[j] = best
	}
	order := make([]int, D)
	for j := range order {
		order[j] = j
	}
	sort.SliceStable(order, func(a, b int) bool {
		if anchor[order[a]] != anchor[order[b]] {
			return anchor[order[a]] < anchor[order[b]]
		}
		return order[a] < order[b]
	})
	out := make([][]int, k)
	for s := 0; s < k; s++ {
		lo, hi := s*D/k, (s+1)*D/k
		shard := append([]int(nil), order[lo:hi]...)
		sort.Ints(shard)
		out[s] = shard
	}
	return out
}

// TestPartitionSinksSingleStreamReference checks that on single-stream
// instances, where every viewer is one unit, the viewer partition cuts
// exactly where the single-stream reference does, for every k from 0 to
// D+2 on random uniform and clustered instances.
func TestPartitionSinksSingleStreamReference(t *testing.T) {
	for seed := uint64(1); seed <= 12; seed++ {
		for _, in := range []*netmodel.Instance{
			gen.Uniform(gen.DefaultUniform(2, 3+int(seed%5), 5+int(seed%17)), seed),
			gen.Clustered(gen.DefaultClustered(2, 2+int(seed%3), 2, 3+int(seed%6)), seed),
		} {
			if in.MultiStream() {
				t.Fatal("generator made a multi-stream instance")
			}
			for k := 0; k <= in.NumSinks+2; k++ {
				if got, want := shard.PartitionSinks(in, k), singleStreamPartition(in, k); !reflect.DeepEqual(got, want) {
					t.Fatalf("seed %d, D=%d, k=%d: partition %v, reference %v", seed, in.NumSinks, k, got, want)
				}
			}
		}
	}
}

// TestPartitionSinks checks the partition invariants on assorted shapes:
// every sink lands in exactly one shard, shard sizes are balanced to within
// one sink, the shard count clamps to the sink population, and the cut is
// independent of which sinks are active.
func TestPartitionSinks(t *testing.T) {
	in := gen.Clustered(gen.DefaultClustered(2, 4, 2, 7), 3)
	for _, k := range []int{1, 2, 3, 5, 8, in.NumSinks, in.NumSinks + 10} {
		parts := shard.PartitionSinks(in, k)
		wantK := k
		if wantK > in.NumSinks {
			wantK = in.NumSinks
		}
		if len(parts) != wantK {
			t.Fatalf("k=%d: got %d shards, want %d", k, len(parts), wantK)
		}
		seen := make([]bool, in.NumSinks)
		minSz, maxSz := in.NumSinks, 0
		for _, p := range parts {
			if len(p) < minSz {
				minSz = len(p)
			}
			if len(p) > maxSz {
				maxSz = len(p)
			}
			for _, j := range p {
				if seen[j] {
					t.Fatalf("k=%d: sink %d in two shards", k, j)
				}
				seen[j] = true
			}
		}
		for j, ok := range seen {
			if !ok {
				t.Fatalf("k=%d: sink %d in no shard", k, j)
			}
		}
		if maxSz-minSz > 1 {
			t.Fatalf("k=%d: shard sizes unbalanced: min %d max %d", k, minSz, maxSz)
		}
	}

	// Threshold churn must not move sinks between shards (live sessions
	// rely on this for per-shard warm starts).
	before := shard.PartitionSinks(in, 3)
	churned := in.Clone()
	for j := 0; j < churned.NumSinks; j += 2 {
		churned.Threshold[j] = 0
	}
	after := shard.PartitionSinks(churned, 3)
	for s := range before {
		if len(before[s]) != len(after[s]) {
			t.Fatalf("threshold churn resized shard %d", s)
		}
		for c := range before[s] {
			if before[s][c] != after[s][c] {
				t.Fatalf("threshold churn moved sink %d of shard %d", before[s][c], s)
			}
		}
	}
}
