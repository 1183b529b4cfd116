package stround

import (
	"math"
	"testing"

	"repro/internal/lp"
)

// SetStage2Probe installs f as the stage-2 probe (see stage2Probe) and
// returns the function that removes it again.
func SetStage2Probe(f func(p2 *lp.Problem, sol1, sol2 *lp.Solution)) (restore func()) {
	prev := stage2Probe
	stage2Probe = f
	return func() { stage2Probe = prev }
}

// Stage2Checker is a stage-2 probe that compares every warm stage-2 solve
// against a cold solve of the same problem: the objectives must agree to a
// relative 1e-9. It counts the calls that had a stage-1 basis to start
// from and the pivots both arms spent, so Check can require that warm
// starts happened and paid for themselves.
type Stage2Checker struct {
	T                      *testing.T
	Calls, FromBasis       int
	WarmPivots, ColdPivots int
}

// Probe is the probe function to install with SetStage2Probe.
func (c *Stage2Checker) Probe(p2 *lp.Problem, sol1, sol2 *lp.Solution) {
	c.T.Helper()
	cold, err := p2.Solve()
	if err != nil {
		c.T.Fatal(err)
	}
	if sol2.Status != lp.Optimal || cold.Status != lp.Optimal {
		c.T.Fatalf("stage 2: warm %v, cold %v", sol2.Status, cold.Status)
	}
	if math.Abs(sol2.Objective-cold.Objective) > 1e-9*(1+math.Abs(cold.Objective)) {
		c.T.Fatalf("stage 2: warm objective %.17g != cold %.17g", sol2.Objective, cold.Objective)
	}
	c.Calls++
	if sol1.Basis != nil {
		c.FromBasis++
	}
	c.WarmPivots += sol2.Iterations
	c.ColdPivots += cold.Iterations
}

// Check fails the test unless a warm stage 2 ran and the warm starts spent
// fewer pivots than cold solves of the same LPs.
func (c *Stage2Checker) Check(what string) {
	c.T.Helper()
	c.T.Logf("%s: %d stage-2 solves, %d from a stage-1 basis; pivots warm %d vs cold %d",
		what, c.Calls, c.FromBasis, c.WarmPivots, c.ColdPivots)
	if c.FromBasis == 0 {
		c.T.Fatalf("%s: no stage-2 solve started from a stage-1 basis", what)
	}
	if c.WarmPivots >= c.ColdPivots {
		c.T.Fatalf("%s: warm stage 2 spent %d pivots, cold %d", what, c.WarmPivots, c.ColdPivots)
	}
}
