package netmodel

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/stats"
)

// referenceAudit is the audit as the per-sink and per-reflector helpers
// state it: Cost, SinkWeight, SinkFailureProb and FanoutUse, each its own
// walk over the serve matrix, plus the structure, colour, edge-cap and
// ingest-cap loops. AuditDesign's single pass must reproduce it bit for bit.
func referenceAudit(in *Instance, d *Design) Audit {
	S, R, D := in.Dims()
	a := Audit{Cost: d.Cost(in), WeightFactor: math.Inf(1), WorstSink: -1, WorstReflector: -1, StructureOK: true}
	for i := 0; i < R; i++ {
		for j := 0; j < D; j++ {
			if d.Serve[i][j] && !d.Ingest[in.Commodity[j]][i] {
				a.StructureOK = false
			}
		}
	}
	for k := 0; k < S; k++ {
		for i := 0; i < R; i++ {
			if d.Ingest[k][i] && !d.Build[i] {
				a.StructureOK = false
			}
		}
	}
	met := make([]bool, D)
	for j := 0; j < D; j++ {
		dem := in.Demand(j)
		if in.Threshold[j] <= 0 {
			continue
		}
		a.Sinks++
		f := d.SinkWeight(in, j) / dem
		if f < a.WeightFactor {
			a.WeightFactor = f
			a.WorstSink = j
		}
		if 1-d.SinkFailureProb(in, j) >= in.Threshold[j]-1e-12 {
			a.MetDemand++
			met[j] = true
		}
	}
	a.Met = met
	if a.Sinks == 0 {
		a.WeightFactor = 1
	}
	for g := 0; g < in.NumViewers(); g++ {
		lo, hi := in.ViewerRange(g)
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
	}
	for i := 0; i < R; i++ {
		use := d.FanoutUse(in, i)
		if use == 0 {
			continue
		}
		f := math.Inf(1)
		if in.Fanout[i] > 0 {
			f = use / in.Fanout[i]
		}
		if f > a.FanoutFactor {
			a.FanoutFactor = f
			a.WorstReflector = i
		}
	}
	if in.Color != nil {
		for j := 0; j < D; j++ {
			counts := make([]int, in.NumColors)
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
	if in.EdgeCap != nil {
		for i := 0; i < R; i++ {
			for j := 0; j < D; j++ {
				if d.Serve[i][j] {
					if ex := 1 - in.EdgeCap[i][j]; ex > a.EdgeCapExcess {
						a.EdgeCapExcess = ex
					}
				}
			}
		}
	}
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

// sameAudit requires every field of two audits to be equal, floats to the
// bit.
func sameAudit(got, want Audit) error {
	floats := []struct {
		name      string
		got, want float64
	}{
		{"Cost", got.Cost, want.Cost},
		{"WeightFactor", got.WeightFactor, want.WeightFactor},
		{"FanoutFactor", got.FanoutFactor, want.FanoutFactor},
		{"EdgeCapExcess", got.EdgeCapExcess, want.EdgeCapExcess},
		{"IngestExcess", got.IngestExcess, want.IngestExcess},
	}
	for _, f := range floats {
		if math.Float64bits(f.got) != math.Float64bits(f.want) {
			return fmt.Errorf("%s = %.17g, want %.17g", f.name, f.got, f.want)
		}
	}
	ints := []struct {
		name      string
		got, want int
	}{
		{"WorstSink", got.WorstSink, want.WorstSink},
		{"WorstReflector", got.WorstReflector, want.WorstReflector},
		{"ColorExcess", got.ColorExcess, want.ColorExcess},
		{"MetDemand", got.MetDemand, want.MetDemand},
		{"Sinks", got.Sinks, want.Sinks},
		{"MetViewers", got.MetViewers, want.MetViewers},
		{"Viewers", got.Viewers, want.Viewers},
	}
	for _, f := range ints {
		if f.got != f.want {
			return fmt.Errorf("%s = %d, want %d", f.name, f.got, f.want)
		}
	}
	if got.StructureOK != want.StructureOK {
		return fmt.Errorf("StructureOK = %v, want %v", got.StructureOK, want.StructureOK)
	}
	if len(got.Met) != len(want.Met) {
		return fmt.Errorf("len(Met) = %d, want %d", len(got.Met), len(want.Met))
	}
	for j := range got.Met {
		if got.Met[j] != want.Met[j] {
			return fmt.Errorf("Met[%d] = %v, want %v", j, got.Met[j], want.Met[j])
		}
	}
	return nil
}

// randomAuditInstance draws a small instance that may set every extension:
// ISP colours, edge caps (some below 1), ingest caps, bandwidths,
// multi-stream viewers, unit weights (some 0), zero thresholds and zero
// fanouts. Losses include 0 and 1, so clamping shows in the weights, and
// thresholds repeat, so consecutive sinks share demands.
func randomAuditInstance(rng *stats.RNG) *Instance {
	S, R := 1+rng.Intn(3), 1+rng.Intn(6)
	multi := rng.Bernoulli(0.5)
	var sinkOf, commodity []int
	for g := 0; g < 1+rng.Intn(12); g++ {
		n := 1
		if multi {
			n = 1 + rng.Intn(S)
		}
		for _, k := range rng.Perm(S)[:n] {
			sinkOf = append(sinkOf, g)
			commodity = append(commodity, k)
		}
	}
	D := len(commodity)
	in := NewZeroInstance(S, R, D)
	copy(in.Commodity, commodity)
	if multi {
		in.SinkOf = sinkOf
	}
	loss := func() float64 {
		switch rng.Intn(8) {
		case 0:
			return 0
		case 1:
			return 1
		}
		return rng.Range(0, 0.6)
	}
	for i := 0; i < R; i++ {
		in.ReflectorCost[i] = rng.Range(0, 10)
		if !rng.Bernoulli(0.15) {
			in.Fanout[i] = float64(rng.Intn(8))
		}
		for k := 0; k < S; k++ {
			in.SrcRefLoss[k][i] = loss()
			in.SrcRefCost[k][i] = rng.Range(0, 3)
		}
		for j := 0; j < D; j++ {
			in.RefSinkLoss[i][j] = loss()
			in.RefSinkCost[i][j] = rng.Range(0, 2)
		}
	}
	thresholds := []float64{0, 0.5, 0.9, 0.9, 0.99, 0.999, 1e-15}
	for j := range in.Threshold {
		in.Threshold[j] = thresholds[rng.Intn(len(thresholds))]
	}
	if rng.Bernoulli(0.5) {
		in.Bandwidth = make([]float64, S)
		for k := range in.Bandwidth {
			in.Bandwidth[k] = rng.Range(0.5, 3)
		}
	}
	if rng.Bernoulli(0.5) {
		caps := []float64{0, 0.5, 0.999, 1, 2}
		in.EdgeCap = make([][]float64, R)
		for i := range in.EdgeCap {
			in.EdgeCap[i] = make([]float64, D)
			for j := range in.EdgeCap[i] {
				if j > 0 && in.Viewer(j) == in.Viewer(j-1) {
					in.EdgeCap[i][j] = in.EdgeCap[i][j-1]
				} else {
					in.EdgeCap[i][j] = caps[rng.Intn(len(caps))]
				}
			}
		}
	}
	if rng.Bernoulli(0.5) {
		in.NumColors = 1 + rng.Intn(3)
		in.Color = make([]int, R)
		for i := range in.Color {
			in.Color[i] = rng.Intn(in.NumColors)
		}
	}
	if rng.Bernoulli(0.5) {
		in.IngestCap = make([]float64, R)
		for i := range in.IngestCap {
			in.IngestCap[i] = float64(rng.Intn(S + 1))
		}
	}
	if rng.Bernoulli(0.5) {
		in.UnitWeight = make([]float64, D)
		for j := range in.UnitWeight {
			in.UnitWeight[j] = float64(rng.Intn(4))
		}
	}
	return in
}

// randomDesign draws a design for in: random serve cells at a random
// density, then either the implication closure (Normalize) or random build
// and ingest bits that may break it.
func randomDesign(in *Instance, rng *stats.RNG) *Design {
	d := NewDesign(in)
	density := []float64{0.05, 0.3, 0.7}[rng.Intn(3)]
	for i := range d.Serve {
		for j := range d.Serve[i] {
			d.Serve[i][j] = rng.Bernoulli(density)
		}
	}
	if rng.Bernoulli(0.5) {
		d.Normalize(in)
		return d
	}
	for i := range d.Build {
		d.Build[i] = rng.Bernoulli(0.5)
		for k := range d.Ingest {
			d.Ingest[k][i] = rng.Bernoulli(0.5)
		}
	}
	return d
}

// TestAuditDesignMatchesHelpers locks the one-pass audit to the per-sink
// helpers on random instances and designs, every field to the bit.
func TestAuditDesignMatchesHelpers(t *testing.T) {
	rng := stats.NewRNG(2024)
	structureBroken := 0
	for trial := 0; trial < 2000; trial++ {
		in := randomAuditInstance(rng)
		if err := in.Validate(); err != nil {
			t.Fatalf("trial %d: generator drew an invalid instance: %v", trial, err)
		}
		d := randomDesign(in, rng)
		want := referenceAudit(in, d)
		if !want.StructureOK {
			structureBroken++
		}
		if err := sameAudit(AuditDesign(in, d), want); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
	}
	if structureBroken == 0 {
		t.Fatal("no trial broke the design's structure")
	}
}

// referenceChurn counts churn in separate passes: an arc and build loop,
// then a per-cell walk that marks changed units for the viewer count.
func referenceChurn(in *Instance, prev, next *Design) Churn {
	var c Churn
	for i := range prev.Serve {
		if prev.Build[i] != next.Build[i] {
			c.Reflectors++
		}
		for j := range prev.Serve[i] {
			if prev.Serve[i][j] != next.Serve[i][j] {
				c.Arcs++
			}
		}
	}
	D := in.NumSinks
	changed := make([]bool, D)
	serve := func(d *Design, i, j int) bool { return d != nil && d.Serve[i][j] }
	for i := 0; i < in.NumReflectors; i++ {
		for j := 0; j < D; j++ {
			if serve(prev, i, j) != serve(next, i, j) {
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
				c.Streams++
			}
			if changed[u] || in.Threshold[u] > 0 {
				rel++
			}
		}
		if ch > 0 {
			c.Viewers += float64(ch) / float64(rel)
		}
		lo = j
	}
	return c
}

// TestDesignChurnMatchesLoops locks the one-pass churn count to the
// separate-pass reference, on random designs and on a design compared with
// itself.
func TestDesignChurnMatchesLoops(t *testing.T) {
	rng := stats.NewRNG(77)
	for trial := 0; trial < 1000; trial++ {
		in := randomAuditInstance(rng)
		prev := randomDesign(in, rng)
		next := prev.Clone()
		if rng.Bernoulli(0.8) {
			next = randomDesign(in, rng)
		}
		got, want := DesignChurn(in, prev, next), referenceChurn(in, prev, next)
		if got.Arcs != want.Arcs || got.Reflectors != want.Reflectors || got.Streams != want.Streams ||
			math.Float64bits(got.Viewers) != math.Float64bits(want.Viewers) {
			t.Fatalf("trial %d: churn %+v, want %+v", trial, got, want)
		}
	}
}
