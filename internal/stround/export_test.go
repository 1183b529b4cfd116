package stround

import (
	"fmt"
	"math"
	"sync"
	"testing"

	"repro/internal/lp"
)

// SetProbe installs f as the path-LP probe (see probe) and returns the
// function that removes it again.
func SetProbe(f func(stage int, start Start, p *lp.Problem, sol *lp.Solution, fresh *lp.Problem)) (restore func()) {
	prev := probe
	probe = f
	return func() { probe = prev }
}

// PathChecker is a probe that checks every path-LP solve Round makes. The
// Problem as solved must equal a fresh build of the same stage LP entry by
// entry (a resumed call solves the previous call's Problem, patched), and
// its objective must equal a cold solve of that build to a relative 1e-9.
// It counts the calls by how they started, and the pivots the solves spent
// against the pivots the cold solves spent. Probe is safe for concurrent
// use, since a sharded solve rounds its shards in parallel, and reports a
// failed check with Errorf, since Fatalf must not run on a shard's
// goroutine.
type PathChecker struct {
	T                         *testing.T
	mu                        sync.Mutex
	Calls                     map[Start]int
	CarriedPivots, ColdPivots int
}

// Probe is the probe function to install with SetProbe.
func (c *PathChecker) Probe(stage int, start Start, p *lp.Problem, sol *lp.Solution, fresh *lp.Problem) {
	c.T.Helper()
	if err := sameProblem(p, fresh); err != nil {
		c.T.Errorf("stage %d (%v): %v", stage, start, err)
		return
	}
	cold, err := fresh.Solve()
	if err != nil {
		c.T.Errorf("stage %d (%v): cold solve: %v", stage, start, err)
		return
	}
	if sol.Status != lp.Optimal || cold.Status != lp.Optimal {
		c.T.Errorf("stage %d (%v): carried %v, cold %v", stage, start, sol.Status, cold.Status)
		return
	}
	if math.Abs(sol.Objective-cold.Objective) > 1e-9*(1+math.Abs(cold.Objective)) {
		c.T.Errorf("stage %d (%v): objective %.17g != cold %.17g", stage, start, sol.Objective, cold.Objective)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.Calls == nil {
		c.Calls = make(map[Start]int)
	}
	if stage == 1 {
		c.Calls[start]++
	}
	c.CarriedPivots += sol.Iterations
	c.ColdPivots += cold.Iterations
}

// Check logs the tally and fails the test unless the solves spent fewer
// pivots than cold solves of the same LPs, and, when wantResumed is set,
// some call resumed its carried LP.
func (c *PathChecker) Check(what string, wantResumed bool) {
	c.T.Helper()
	c.T.Logf("%s: path-LP calls resumed %d, remapped %d, cold %d; pivots %d vs %d cold",
		what, c.Calls[StartResumed], c.Calls[StartRemapped], c.Calls[StartCold], c.CarriedPivots, c.ColdPivots)
	if wantResumed && c.Calls[StartResumed] == 0 {
		c.T.Fatalf("%s: no path-LP call resumed its carried LP", what)
	}
	if c.CarriedPivots >= c.ColdPivots {
		c.T.Fatalf("%s: path LPs spent %d pivots, cold solves %d", what, c.CarriedPivots, c.ColdPivots)
	}
}

// sameProblem reports how got and want differ, if they do, on shape,
// bounds, objective, or any row's relation, right-hand side or coefficient
// list, or whether got's CSC cache is out of sync.
func sameProblem(got, want *lp.Problem) error {
	if got.NumVars() != want.NumVars() || got.NumRows() != want.NumRows() {
		return fmt.Errorf("shape %dx%d, fresh build %dx%d", got.NumRows(), got.NumVars(), want.NumRows(), want.NumVars())
	}
	for j := 0; j < want.NumVars(); j++ {
		glo, ghi := got.Bounds(j)
		wlo, whi := want.Bounds(j)
		if glo != wlo || ghi != whi {
			return fmt.Errorf("var %d: bounds [%g,%g], fresh build [%g,%g]", j, glo, ghi, wlo, whi)
		}
		if g, w := got.ObjectiveCoef(j), want.ObjectiveCoef(j); g != w {
			return fmt.Errorf("var %d: objective %.17g, fresh build %.17g", j, g, w)
		}
	}
	for r := 0; r < want.NumRows(); r++ {
		grel, grhs := got.RHS(r)
		wrel, wrhs := want.RHS(r)
		if grel != wrel || grhs != wrhs {
			return fmt.Errorf("row %d: %v %.17g, fresh build %v %.17g", r, grel, grhs, wrel, wrhs)
		}
		gc, wc := got.RowCoefs(r), want.RowCoefs(r)
		if len(gc) != len(wc) {
			return fmt.Errorf("row %d: %d coefficients, fresh build %d", r, len(gc), len(wc))
		}
		for i := range wc {
			if gc[i] != wc[i] {
				return fmt.Errorf("row %d coefficient %d: %+v, fresh build %+v", r, i, gc[i], wc[i])
			}
		}
	}
	return got.CheckCSCSync()
}
