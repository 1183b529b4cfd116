package stround_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/live"
	"repro/internal/stround"
)

// TestPathLPCarriedMatchesColdLibrary replays every scenario of the live
// library with engine defaults, flat and with three shards, and checks each
// path-LP solve it makes: stage 1 and stage 2, resumed, remapped or cold,
// must reach the objective a cold solve of the same LP reaches (relative
// 1e-9), and a resumed call's patched Problem must equal a fresh build.
// Every scenario but diurnal, whose join and leave waves move x̄'s support
// every epoch, must resume some calls, and across the library the carried
// solves must spend fewer pivots than cold ones. Sharded, each shard's path
// LP is carried in the shard's own carry, and the shards round in parallel.
func TestPathLPCarriedMatchesColdLibrary(t *testing.T) {
	for _, tc := range []struct {
		name   string
		solver core.Options
	}{{"flat", core.Options{}}, {"sharded-3", core.Options{Shards: 3}}} {
		t.Run(tc.name, func(t *testing.T) {
			total := &stround.PathChecker{T: t, Calls: make(map[stround.Start]int)}
			for _, name := range live.Names() {
				sc, err := live.Make(name, 7, 24)
				if err != nil {
					t.Fatal(err)
				}
				c := &stround.PathChecker{T: t}
				restore := stround.SetProbe(c.Probe)
				_, err = live.Run(sc, live.Config{Solver: tc.solver, Policy: live.WarmStickyPolicy()})
				restore()
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				c.Check(name, name != "diurnal")
				for start, n := range c.Calls {
					total.Calls[start] += n
				}
				total.CarriedPivots += c.CarriedPivots
				total.ColdPivots += c.ColdPivots
			}
			total.Check("library", true)
		})
	}
}
