package core_test

import (
	"reflect"
	"testing"

	"repro/internal/agg"
	"repro/internal/core"
	"repro/internal/live"
)

// TestOneShotAndSessionBuildOneLP: a one-shot Solve and a cold session's
// first Step build the same LP, the covering rows of inactive demand units
// included. On the flash crowd's base, some of whose units are inactive,
// both report the same LP size, pivots and cost and deploy the same design:
// flat, sharded, aggregated, and aggregated and sharded.
func TestOneShotAndSessionBuildOneLP(t *testing.T) {
	base := live.FlashCrowd(1, 5).Base
	inactive := 0
	for _, thr := range base.Threshold {
		if thr <= 0 {
			inactive++
		}
	}
	if inactive == 0 {
		t.Fatal("the base has no inactive unit, so both shapes would agree anyway")
	}
	for _, tc := range []struct {
		name      string
		shards    int
		aggregate bool
	}{
		{"flat", 0, false},
		{"shards-3", 3, false},
		{"aggregate", 0, true},
		{"aggregate-shards-2", 2, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			opts := core.DefaultOptions(1)
			opts.Shards = tc.shards
			if tc.aggregate {
				opts.Aggregate = &agg.Config{}
			}
			one, err := core.Solve(base.Clone(), opts)
			if err != nil {
				t.Fatal(err)
			}
			step, err := core.NewSession(opts, 0, false).Step(base.Clone())
			if err != nil {
				t.Fatal(err)
			}
			for _, c := range []struct {
				what      string
				got, want any
			}{
				{"LPRows", step.LPRows, one.LPRows},
				{"LPVars", step.LPVars, one.LPVars},
				{"LPPivots", step.LPPivots, one.LPPivots},
				{"LPCost", step.LPCost, one.LPCost},
				{"Design", step.Design, one.Design},
			} {
				if !reflect.DeepEqual(c.got, c.want) {
					t.Fatalf("session epoch 0 %s = %v, one-shot %v", c.what, c.got, c.want)
				}
			}
		})
	}
}
