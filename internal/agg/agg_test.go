package agg

import (
	"fmt"
	"testing"

	"repro/internal/gen"
	"repro/internal/netmodel"
	"repro/internal/stats"
)

func clustered(t *testing.T, streams int, seed uint64) *netmodel.Instance {
	t.Helper()
	cc := gen.DefaultClustered(2, 3, 2, 6)
	if streams > 1 {
		cc.StreamsPerSink = streams
		cc.Fanout *= streams
	}
	return gen.Clustered(cc, seed)
}

func TestBuildShapeAndWeights(t *testing.T) {
	in := clustered(t, 2, 3)
	st, err := Build(in, Config{})
	if err != nil {
		t.Fatal(err)
	}
	a := st.Agg
	if !a.Weighted() {
		t.Fatal("aggregate instance must be weighted")
	}
	if err := a.Validate(); err != nil {
		t.Fatalf("aggregate instance invalid: %v", err)
	}
	if a.NumSinks >= in.NumSinks {
		t.Fatalf("aggregation did not shrink the sink axis: %d vs %d", a.NumSinks, in.NumSinks)
	}
	// Membership partitions the true demand units exactly once.
	seen := make([]bool, in.NumSinks)
	totalW := 0.0
	for au := 0; au < st.Units(); au++ {
		totalW += a.UnitWeight[au]
		maxThr := 0.0
		for _, j := range st.MemberUnits(au) {
			if seen[j] {
				t.Fatalf("unit %d appears in two aggregates", j)
			}
			seen[j] = true
			if st.UnitOf(j) != au {
				t.Fatalf("UnitOf(%d) = %d, want %d", j, st.UnitOf(j), au)
			}
			if in.Commodity[j] != a.Commodity[au] {
				t.Fatalf("unit %d stream %d folded into aggregate stream %d",
					j, in.Commodity[j], a.Commodity[au])
			}
			if in.Threshold[j] > maxThr {
				maxThr = in.Threshold[j]
			}
		}
		if a.Threshold[au] != maxThr {
			t.Fatalf("aggregate %d threshold %g, want member max %g", au, a.Threshold[au], maxThr)
		}
	}
	for j, ok := range seen {
		if !ok {
			t.Fatalf("unit %d not in any aggregate", j)
		}
	}
	active := 0
	for _, thr := range in.Threshold {
		if thr > 0 {
			active++
		}
	}
	if int(totalW) != active {
		t.Fatalf("total aggregate weight %g, want %d active units", totalW, active)
	}
}

func TestBuildDeterministic(t *testing.T) {
	in := clustered(t, 2, 9)
	a, err := Build(in, Config{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Build(in.Clone(), Config{})
	if err != nil {
		t.Fatal(err)
	}
	if a.Units() != b.Units() || a.Groups() != b.Groups() {
		t.Fatalf("shape differs across builds: (%d,%d) vs (%d,%d)",
			a.Groups(), a.Units(), b.Groups(), b.Units())
	}
	for j := 0; j < in.NumSinks; j++ {
		if a.UnitOf(j) != b.UnitOf(j) {
			t.Fatalf("unit %d folds differently across builds: %d vs %d", j, a.UnitOf(j), b.UnitOf(j))
		}
	}
	sameAggInstance(t, "rebuild", a.Agg, b.Agg)
}

func TestBuildRejects(t *testing.T) {
	in := clustered(t, 1, 4)
	st, err := Build(in, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Build(st.Agg, Config{}); err == nil {
		t.Fatal("building over an already-weighted instance must fail")
	}
	if _, err := Build(in, Config{GroupOf: make([]int, in.NumViewers()+1)}); err == nil {
		t.Fatal("mis-sized GroupOf must fail")
	}
}

// sameAggInstance compares the aggregated sink plane cell-exactly.
func sameAggInstance(t *testing.T, what string, a, b *netmodel.Instance) {
	t.Helper()
	if a.NumSinks != b.NumSinks {
		t.Fatalf("%s: unit counts differ: %d vs %d", what, a.NumSinks, b.NumSinks)
	}
	for au := 0; au < a.NumSinks; au++ {
		if a.Threshold[au] != b.Threshold[au] {
			t.Fatalf("%s: threshold[%d] %g != %g", what, au, a.Threshold[au], b.Threshold[au])
		}
		if a.UnitWeight[au] != b.UnitWeight[au] {
			t.Fatalf("%s: weight[%d] %g != %g", what, au, a.UnitWeight[au], b.UnitWeight[au])
		}
		for i := range a.RefSinkLoss {
			if a.RefSinkLoss[i][au] != b.RefSinkLoss[i][au] {
				t.Fatalf("%s: loss[%d][%d] %g != %g", what, i, au, a.RefSinkLoss[i][au], b.RefSinkLoss[i][au])
			}
			if a.RefSinkCost[i][au] != b.RefSinkCost[i][au] {
				t.Fatalf("%s: cost[%d][%d] %g != %g", what, i, au, a.RefSinkCost[i][au], b.RefSinkCost[i][au])
			}
		}
	}
}

// TestSyncMatchesRebuild is the incremental-fold property lock: after any
// sequence of deltas, the Sync-maintained aggregate instance must equal a
// fresh Build over the mutated true instance cell-exactly, and the emitted
// dirty set must cover every aggregate cell that changed. Its last rounds
// reprice a member arc and flip the same unit's weight in one epoch, then
// flip the weight alone, so a cached member-cost sum read before the
// reprice lands, or never refreshed by it, fails.
func TestSyncMatchesRebuild(t *testing.T) {
	in := clustered(t, 2, 17)
	// Pin the grouping: auto anchor groups are a function of costs, so a
	// fresh Build over the drifted instance would partition differently —
	// membership is fixed at Build by design.
	cfg := Config{GroupOf: in.CostAnchors()}
	st, err := Build(in, cfg)
	if err != nil {
		t.Fatal(err)
	}
	rng := stats.NewRNG(41)
	thr := 0.0
	for _, v := range in.Threshold {
		if v > thr {
			thr = v
		}
	}
	step := func(round int, d netmodel.Delta) *netmodel.DirtySet {
		t.Helper()
		ds, err := d.Apply(in)
		if err != nil {
			t.Fatal(err)
		}

		// Snapshot the aggregated sink plane to verify dirty completeness.
		before := st.Agg.Clone()
		out := st.Sync(in, ds)

		fresh, err := Build(in, cfg)
		if err != nil {
			t.Fatal(err)
		}
		sameAggInstance(t, fmt.Sprintf("round %d", round), st.Agg, fresh.Agg)

		// Every aggregate cell that moved must be listed in the dirty set.
		dirtyDemand := map[int]bool{}
		for _, au := range out.SinkDemand {
			dirtyDemand[au] = true
		}
		dirtyWeight := map[int]bool{}
		for _, au := range out.SinkWeight {
			dirtyWeight[au] = true
		}
		dirtyCost := map[[2]int]bool{}
		for _, arc := range out.RefSinkCost {
			dirtyCost[[2]int{arc.A, arc.B}] = true
		}
		dirtyLoss := map[[2]int]bool{}
		for _, arc := range out.RefSinkLoss {
			dirtyLoss[[2]int{arc.A, arc.B}] = true
		}
		for au := 0; au < st.Units(); au++ {
			if st.Agg.Threshold[au] != before.Threshold[au] && !dirtyDemand[au] {
				t.Fatalf("round %d: threshold[%d] changed but not dirty", round, au)
			}
			if st.Agg.UnitWeight[au] != before.UnitWeight[au] && !dirtyWeight[au] {
				t.Fatalf("round %d: weight[%d] changed but not dirty", round, au)
			}
			for i := range st.Agg.RefSinkCost {
				if st.Agg.RefSinkCost[i][au] != before.RefSinkCost[i][au] && !dirtyCost[[2]int{i, au}] {
					t.Fatalf("round %d: cost[%d][%d] changed but not dirty", round, i, au)
				}
				if st.Agg.RefSinkLoss[i][au] != before.RefSinkLoss[i][au] && !dirtyLoss[[2]int{i, au}] {
					t.Fatalf("round %d: loss[%d][%d] changed but not dirty", round, i, au)
				}
			}
		}
		return out
	}
	for round := 0; round < 12; round++ {
		d := netmodel.Delta{Note: fmt.Sprintf("round %d", round)}
		for j := 0; j < in.NumSinks; j++ {
			if rng.Bernoulli(0.15) {
				v := 0.0
				if rng.Bernoulli(0.6) {
					v = thr * rng.Range(0.95, 1.0)
				}
				d.SetThreshold = append(d.SetThreshold, netmodel.SinkValue{Sink: j, Value: v})
			}
		}
		for i := 0; i < in.NumReflectors; i++ {
			if rng.Bernoulli(0.1) {
				d.ScaleReflectorCost = append(d.ScaleReflectorCost,
					netmodel.RefValue{Ref: i, Value: rng.Range(0.9, 1.1)})
			}
			for j := 0; j < in.NumSinks; j++ {
				if rng.Bernoulli(0.05) {
					d.ScaleRefSinkCost = append(d.ScaleRefSinkCost,
						netmodel.ArcValue{A: i, B: j, Value: rng.Range(0.8, 1.2)})
				}
				if rng.Bernoulli(0.05) {
					d.SetRefSinkLoss = append(d.SetRefSinkLoss,
						netmodel.ArcValue{A: i, B: j, Value: rng.Range(0.005, 0.4)})
				}
			}
		}
		step(round, d)
	}

	// A unit with at least three members, all active, so that each of the
	// two leaves below moves its weight scale.
	au := -1
	for u := 0; u < st.Units() && au < 0; u++ {
		if len(st.MemberUnits(u)) >= 3 {
			au = u
		}
	}
	if au < 0 {
		t.Fatal("no aggregate unit has three members")
	}
	mus := st.MemberUnits(au)
	var join netmodel.Delta
	for _, j := range mus {
		join.SetThreshold = append(join.SetThreshold, netmodel.SinkValue{Sink: j, Value: thr})
	}
	step(12, join)
	const i = 1
	out := step(13, netmodel.Delta{
		SetThreshold:     []netmodel.SinkValue{{Sink: mus[0], Value: 0}},
		ScaleRefSinkCost: []netmodel.ArcValue{{A: i, B: mus[1], Value: 1.7}},
	})
	if len(out.SinkWeight) != 1 || out.SinkWeight[0] != au {
		t.Fatalf("round 13: weight dirt %v, want unit %d", out.SinkWeight, au)
	}
	step(14, netmodel.Delta{SetThreshold: []netmodel.SinkValue{{Sink: mus[2], Value: 0}}})
}

// TestSyncWeightNeutralSwapIsClean locks the LP-free mechanism at the fold
// level: a leave matched by a join inside the same aggregate emits an EMPTY
// aggregate dirty set.
func TestSyncWeightNeutralSwapIsClean(t *testing.T) {
	in := clustered(t, 1, 21)
	group := make([]int, in.NumViewers())
	var on, off int = -1, -1
	for j := 0; j < in.NumSinks && off < 0; j++ {
		for k := j + 1; k < in.NumSinks; k++ {
			if in.Commodity[j] == in.Commodity[k] {
				on, off = j, k
				break
			}
		}
	}
	if off < 0 {
		t.Fatal("no two sinks share a stream")
	}
	thr := in.Threshold[off]
	in.Threshold[off] = 0
	st, err := Build(in, Config{GroupOf: group})
	if err != nil {
		t.Fatal(err)
	}
	d := netmodel.Delta{SetThreshold: []netmodel.SinkValue{
		{Sink: on, Value: 0}, {Sink: off, Value: thr},
	}}
	ds, err := d.Apply(in)
	if err != nil {
		t.Fatal(err)
	}
	if out := st.Sync(in, ds); !out.Empty() {
		t.Fatalf("weight-neutral swap emitted dirty %+v", out)
	}
}

// TestDisaggregateServesActiveMembers checks the unfold: every active member
// is served only from reflectors serving its aggregate, up to its full
// demand where the candidates admit it, sticky to the previous deployment.
func TestDisaggregateServesActiveMembers(t *testing.T) {
	in := clustered(t, 2, 29)
	st, err := Build(in, Config{})
	if err != nil {
		t.Fatal(err)
	}
	a := st.Agg
	// Hand-build an aggregate design: each unit served by its three
	// cheapest allowed reflectors, all of them built and ingesting.
	ad := netmodel.NewDesign(a)
	for i := range ad.Build {
		ad.Build[i] = true
		for k := range ad.Ingest {
			ad.Ingest[k][i] = true
		}
	}
	for au := 0; au < a.NumSinks; au++ {
		picked := 0
		for i := 0; i < a.NumReflectors && picked < 3; i++ {
			if a.ArcAllowed(i, au) {
				ad.Serve[i][au] = true
				picked++
			}
		}
	}
	d := st.Disaggregate(in, ad, nil)
	for j := 0; j < in.NumSinks; j++ {
		au := st.UnitOf(j)
		got := 0.0
		for i := 0; i < in.NumReflectors; i++ {
			if !d.Serve[i][j] {
				continue
			}
			if in.Threshold[j] <= 0 {
				t.Fatalf("inactive unit %d is served", j)
			}
			if !ad.Serve[i][au] {
				t.Fatalf("unit %d served from reflector %d outside its aggregate's set", j, i)
			}
			got += in.CappedWeight(i, j)
		}
		if in.Threshold[j] <= 0 {
			continue
		}
		// Full demand where the aggregate's candidate set admits it.
		avail := 0.0
		for i := 0; i < in.NumReflectors; i++ {
			if ad.Serve[i][au] && in.ArcAllowed(i, j) {
				avail += in.CappedWeight(i, j)
			}
		}
		want := in.Demand(j)
		if avail < want {
			want = avail
		}
		if got < want-1e-9 {
			t.Fatalf("unit %d got weight %g, want %g (avail %g)", j, got, want, avail)
		}
	}

	// Stickiness: serving arcs of a previous design that remain candidates
	// are preferred over equally-good strangers.
	prev := d
	d2 := st.Disaggregate(in, ad, prev)
	for j := 0; j < in.NumSinks; j++ {
		for i := 0; i < in.NumReflectors; i++ {
			if prev.Serve[i][j] && !d2.Serve[i][j] {
				t.Fatalf("sticky re-disaggregation dropped arc (%d,%d) with unchanged candidates", i, j)
			}
		}
	}
}

// TestColoGroupsFoldsAnchors pins ColoGroups to its contract: the label is
// exactly the per-reflector cost anchor folded into banks of
// reflectorsPerColo consecutive indices, so the fold can never exceed
// ⌈R/reflectorsPerColo⌉ labels, and reflectorsPerColo ≤ 1 degenerates to the
// default per-reflector anchors.
func TestColoGroupsFoldsAnchors(t *testing.T) {
	cfg := gen.DefaultClustered(2, 3, 2, 5)
	cfg.ReflectorsPerColo = 3
	in := gen.Clustered(cfg, 11)
	anchors := in.CostAnchors()
	colos := ColoGroups(in, 3)
	if len(colos) != len(anchors) {
		t.Fatalf("ColoGroups returned %d labels for %d viewers", len(colos), len(anchors))
	}
	_, R, _ := in.Dims()
	for g := range colos {
		if colos[g] != anchors[g]/3 {
			t.Fatalf("viewer %d: colo label %d, want anchor %d / 3 = %d",
				g, colos[g], anchors[g], anchors[g]/3)
		}
		if colos[g] < 0 || colos[g] >= (R+2)/3 {
			t.Fatalf("viewer %d: colo label %d out of range for R=%d, rpc=3", g, colos[g], R)
		}
	}
	ident := ColoGroups(in, 1)
	for g := range ident {
		if ident[g] != anchors[g] {
			t.Fatalf("rpc=1 must degenerate to per-reflector anchors (viewer %d: %d vs %d)",
				g, ident[g], anchors[g])
		}
	}
}
