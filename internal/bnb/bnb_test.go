package bnb

import (
	"testing"

	"repro/internal/gen"
	"repro/internal/lpmodel"
	"repro/internal/netmodel"
)

func TestTinyExact(t *testing.T) {
	in := gen.Uniform(gen.DefaultUniform(1, 3, 4), 2)
	res, err := Solve(in, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Design == nil {
		t.Fatal("no feasible design found")
	}
	if !res.Optimal {
		t.Fatal("tiny instance should be solved to optimality")
	}
	a := netmodel.AuditDesign(in, res.Design)
	if !a.StructureOK {
		t.Fatal("structure violated")
	}
	if a.WeightFactor < 1-1e-6 {
		t.Fatalf("exact IP solution must meet all weight demands, factor=%v", a.WeightFactor)
	}
	if a.FanoutFactor > 1+1e-6 {
		t.Fatalf("exact IP solution must respect fanout, factor=%v", a.FanoutFactor)
	}
	// Audit cost must match the reported IP objective.
	if diff := a.Cost - res.Cost; diff > 1e-6 || diff < -1e-6 {
		t.Fatalf("audit cost %v != IP cost %v", a.Cost, res.Cost)
	}
}

func TestIPAtLeastLP(t *testing.T) {
	for seed := uint64(1); seed <= 3; seed++ {
		in := gen.Uniform(gen.DefaultUniform(1, 3, 5), seed)
		fs, err := lpmodel.SolveLP(in, lpmodel.DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		res, err := Solve(in, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if res.Design == nil || !res.Optimal {
			t.Fatalf("seed %d: expected exact solve", seed)
		}
		if res.Cost < fs.Cost-1e-6 {
			t.Fatalf("seed %d: IP cost %v below LP bound %v", seed, res.Cost, fs.Cost)
		}
	}
}

func TestBruteForceAgreement(t *testing.T) {
	// On a truly minuscule instance, compare with exhaustive enumeration
	// over all (z,y,x) designs.
	in := gen.Uniform(gen.DefaultUniform(1, 2, 2), 7)
	// Loosen thresholds so multiple feasible designs exist.
	for j := range in.Threshold {
		in.Threshold[j] = 0.9
	}
	res, err := Solve(in, Options{})
	if err != nil {
		t.Fatal(err)
	}
	bestBrute := bruteForce(in)
	if res.Design == nil {
		if bestBrute >= 0 {
			t.Fatalf("bnb found nothing, brute force found cost %v", bestBrute)
		}
		return
	}
	if !res.Optimal {
		t.Fatal("expected optimal")
	}
	if diff := res.Cost - bestBrute; diff > 1e-6 || diff < -1e-6 {
		t.Fatalf("bnb cost %v != brute force %v", res.Cost, bestBrute)
	}
}

// bruteForce enumerates all 2^(R*D) serve matrices (R=D=2 ⇒ 16), deriving
// z,y minimally, and returns the min feasible cost (or -1).
func bruteForce(in *netmodel.Instance) float64 {
	_, R, D := in.Dims()
	best := -1.0
	n := R * D
	for mask := 0; mask < 1<<n; mask++ {
		d := netmodel.NewDesign(in)
		for b := 0; b < n; b++ {
			if mask&(1<<b) != 0 {
				d.Serve[b/D][b%D] = true
			}
		}
		d.Normalize(in)
		a := netmodel.AuditDesign(in, d)
		if !a.StructureOK || a.WeightFactor < 1-1e-9 || a.FanoutFactor > 1+1e-9 {
			continue
		}
		if best < 0 || a.Cost < best {
			best = a.Cost
		}
	}
	return best
}

func TestNodeLimitRespected(t *testing.T) {
	in := gen.Uniform(gen.DefaultUniform(2, 5, 8), 3)
	res, err := Solve(in, Options{NodeLimit: 5})
	if err != nil {
		t.Fatal(err)
	}
	if res.Nodes > 5 {
		t.Fatalf("explored %d nodes, limit 5", res.Nodes)
	}
	if res.Optimal && res.Nodes >= 5 {
		t.Fatal("cannot claim optimality at the node limit")
	}
}

// TestWarmDiveMatchesCold: warm-starting child LPs from the parent basis
// must prove the same optimum as a cold-LP search. The search trees may
// differ (degenerate LPs have multiple optimal vertices, so the
// most-fractional branching variable can change), but the proven IP cost
// cannot — and across instances the warm dives must spend fewer total
// simplex pivots.
func TestWarmDiveMatchesCold(t *testing.T) {
	totalWarm, totalCold := 0, 0
	for seed := uint64(1); seed <= 3; seed++ {
		in := gen.Uniform(gen.DefaultUniform(1, 4, 6), seed)
		warm, err := Solve(in, Options{})
		if err != nil {
			t.Fatal(err)
		}
		cold, err := Solve(in, Options{ColdLP: true})
		if err != nil {
			t.Fatal(err)
		}
		if !warm.Optimal || !cold.Optimal {
			t.Fatalf("seed %d: search incomplete: warm=%v cold=%v", seed, warm.Optimal, cold.Optimal)
		}
		if d := warm.Cost - cold.Cost; d > 1e-6 || d < -1e-6 {
			t.Fatalf("seed %d: warm cost %.9f != cold cost %.9f", seed, warm.Cost, cold.Cost)
		}
		totalWarm += warm.LPIterations
		totalCold += cold.LPIterations
		t.Logf("seed %d: pivots warm=%d cold=%d (nodes warm=%d cold=%d)",
			seed, warm.LPIterations, cold.LPIterations, warm.Nodes, cold.Nodes)
	}
	if totalWarm >= totalCold {
		t.Fatalf("warm dives used %d total pivots, cold %d", totalWarm, totalCold)
	}
}
