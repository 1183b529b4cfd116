package core

import (
	"testing"

	"repro/internal/agg"
	"repro/internal/gen"
	"repro/internal/netmodel"
)

// BenchmarkAggregatePlane times the passes of one steady aggregated epoch
// that run outside the LP, at the fleet footprint (10^4 viewers, 40
// reflectors, colours stripped): applying a join/leave wave of 800 viewers,
// Sync, Disaggregate, AuditDesign and the churn count. The aggregate design
// is the one a four-shard session deployed at epoch 0 and stays fixed, and
// the wave alternates between leaving and rejoining, so every iteration
// does the same work.
func BenchmarkAggregatePlane(b *testing.B) {
	cc := gen.DefaultClustered(2, 8, 5, 1250)
	in := gen.Clustered(cc, 2401)
	in.Color, in.NumColors = nil, 0
	// A fifth of the viewers start unjoined; the wave is every tenth of
	// the rest.
	var wave []int
	for j := range in.Threshold {
		switch {
		case j%5 == 4:
			in.Threshold[j] = 0
		case j%10 == 3:
			wave = append(wave, j)
		}
	}
	sess := NewSession(Options{Seed: 1, Shards: 4, Aggregate: &agg.Config{}}, 0.4, true)
	if _, err := sess.Step(in); err != nil {
		b.Fatal(err)
	}
	st, aggDesign, prev := sess.agg.fold, sess.agg.prior, sess.prior
	var leave, join netmodel.Delta
	for _, j := range wave {
		leave.SetThreshold = append(leave.SetThreshold, netmodel.SinkValue{Sink: j, Value: 0})
		join.SetThreshold = append(join.SetThreshold, netmodel.SinkValue{Sink: j, Value: cc.Threshold})
	}
	b.ReportAllocs()
	for n := 0; b.Loop(); n++ {
		delta := leave
		if n%2 == 1 {
			delta = join
		}
		dirty, err := delta.Apply(in)
		if err != nil {
			b.Fatal(err)
		}
		st.Sync(in, dirty)
		d := st.Disaggregate(in, aggDesign, prev)
		if a := netmodel.AuditDesign(in, d); !a.StructureOK {
			b.Fatal("disaggregated design breaks structure")
		}
		netmodel.DesignChurn(in, prev, d)
		prev = d
	}
}
