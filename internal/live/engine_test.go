package live

import (
	"testing"

	"repro/internal/agg"
	"repro/internal/core"
)

// TestEpochActiveCountsFromAudit: Engine.Step reads an epoch's active sink
// and viewer counts from the audit of the deployed design, so they must
// equal a direct count over the instance the epoch solved — across the
// scenario library, and on an aggregated sharded run, whose audit runs on
// the true instance after disaggregation.
func TestEpochActiveCountsFromAudit(t *testing.T) {
	check := func(t *testing.T, sc *Scenario, solver core.Options) {
		t.Helper()
		solver.Seed = sc.Seed
		p := WarmStickyPolicy()
		in := sc.Base.Clone()
		eng := NewEngine(in, core.NewSession(solver, p.Stickiness, p.WarmStart), sc.SinkRegion, 0, 0, nil)
		for e := 0; e < sc.Epochs; e++ {
			for _, ev := range sc.Events {
				if ev.Epoch == e {
					if err := eng.Apply(ev.Delta); err != nil {
						t.Fatal(err)
					}
				}
			}
			er, _, err := eng.Step()
			if err != nil {
				t.Fatal(err)
			}
			sinks := 0
			for _, phi := range in.Threshold {
				if phi > 0 {
					sinks++
				}
			}
			if er.ActiveSinks != sinks || er.ActiveViewers != in.ActiveViewers() {
				t.Fatalf("%s epoch %d: active sinks %d, viewers %d; the instance has %d and %d",
					sc.Name, e, er.ActiveSinks, er.ActiveViewers, sinks, in.ActiveViewers())
			}
		}
	}
	for _, name := range Names() {
		sc, err := Make(name, 5, 10)
		if err != nil {
			t.Fatal(err)
		}
		check(t, sc, core.Options{})
	}
	for _, name := range []string{"flashcrowd", "streamwave"} {
		sc, err := Make(name, 9, 10)
		if err != nil {
			t.Fatal(err)
		}
		check(t, sc, core.Options{Shards: 3, Aggregate: &agg.Config{}})
	}
}
