package stround_test

import (
	"testing"

	"repro/internal/live"
	"repro/internal/stround"
)

// TestStage2WarmMatchesColdLibrary replays every scenario of the live
// library with engine defaults and checks each path-rounding call it makes:
// stage 2, warm from stage 1's basis, must reach the objective a cold solve
// of the same stage-2 LP reaches (relative 1e-9), and every scenario must
// have run a warm stage 2.
func TestStage2WarmMatchesColdLibrary(t *testing.T) {
	for _, name := range live.Names() {
		sc, err := live.Make(name, 7, 12)
		if err != nil {
			t.Fatal(err)
		}
		c := &stround.Stage2Checker{T: t}
		restore := stround.SetStage2Probe(c.Probe)
		_, err = live.Run(sc, live.Config{Policy: live.WarmStickyPolicy()})
		restore()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		c.Check(name)
	}
}
