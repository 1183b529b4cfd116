package core

import (
	"testing"

	"repro/internal/gen"
	"repro/internal/netmodel"
)

func TestRepairReachesFullDemand(t *testing.T) {
	for seed := uint64(1); seed <= 6; seed++ {
		in := gen.Uniform(gen.DefaultUniform(2, 8, 16), seed)
		opts := DefaultOptions(seed * 3)
		opts.RepairCoverage = true
		res, err := Solve(in, opts)
		if err != nil {
			t.Fatal(err)
		}
		a := res.Audit
		if a.WeightFactor < 1-1e-9 {
			// Repair can only fall short when capacity is exhausted;
			// verify that is actually the case (no admissible arc
			// remains for the worst sink).
			j := a.WorstSink
			for i := 0; i < in.NumReflectors; i++ {
				if res.Design.Serve[i][j] || !in.ArcAllowed(i, j) {
					continue
				}
				// Mirror repair.go's admissibility: the arc adds the unit's
				// full LOAD (weight × stream bandwidth), not the bare stream
				// bandwidth — the two differ on weighted (aggregated) units.
				if res.Design.FanoutUse(in, i)+in.UnitLoad(j) > 4*in.Fanout[i] {
					continue
				}
				if in.CappedWeight(i, j) <= 1e-12 {
					continue
				}
				t.Fatalf("seed %d: repair stopped short with admissible arc (%d,%d) available", seed, i, j)
			}
		}
		if a.FanoutFactor > 4+1e-9 {
			t.Fatalf("seed %d: repair exceeded 4F: %v", seed, a.FanoutFactor)
		}
		if !a.StructureOK {
			t.Fatalf("seed %d: repair broke structure", seed)
		}
	}
}

func TestRepairRespectsColors(t *testing.T) {
	in := gen.Clustered(gen.DefaultClustered(2, 2, 3, 5), 8)
	opts := DefaultOptions(4)
	opts.RepairCoverage = true
	res, err := Solve(in, opts)
	if err != nil {
		t.Fatal(err)
	}
	// Repair itself never adds a second same-color copy; the §6.5 stage
	// may leave at most its additive excess, which repair cannot worsen.
	if res.Audit.ColorExcess > res.STResult.MaxColorExcess {
		t.Fatalf("repair worsened color excess: %d > %d",
			res.Audit.ColorExcess, res.STResult.MaxColorExcess)
	}
}

func TestRepairOnEmptyDesign(t *testing.T) {
	in := gen.Uniform(gen.DefaultUniform(1, 5, 8), 3)
	d := netmodel.NewDesign(in)
	added := RepairCoverage(in, d, 4)
	if added == 0 {
		t.Fatal("repair of an empty design must add arcs")
	}
	a := netmodel.AuditDesign(in, d)
	if a.WeightFactor < 1-1e-9 {
		t.Fatalf("repair from scratch should fully cover here: %v", a.WeightFactor)
	}
	if !a.StructureOK {
		t.Fatal("structure broken")
	}
}

func TestRepairIdempotent(t *testing.T) {
	in := gen.Uniform(gen.DefaultUniform(1, 5, 8), 3)
	d := netmodel.NewDesign(in)
	RepairCoverage(in, d, 4)
	cost := d.Cost(in)
	if added := RepairCoverage(in, d, 4); added != 0 {
		t.Fatalf("second repair added %d arcs", added)
	}
	if d.Cost(in) != cost {
		t.Fatal("second repair changed cost")
	}
}

func TestSolveDeterministicInSeed(t *testing.T) {
	in := gen.Uniform(gen.DefaultUniform(2, 7, 12), 11)
	a, err := Solve(in, DefaultOptions(99))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Solve(in, DefaultOptions(99))
	if err != nil {
		t.Fatal(err)
	}
	if a.Audit.Cost != b.Audit.Cost {
		t.Fatalf("same seed, different cost: %v vs %v", a.Audit.Cost, b.Audit.Cost)
	}
	for i := range a.Design.Serve {
		for j := range a.Design.Serve[i] {
			if a.Design.Serve[i][j] != b.Design.Serve[i][j] {
				t.Fatal("same seed, different design")
			}
		}
	}
}

func TestForcePathRoundingWithoutColors(t *testing.T) {
	in := gen.Uniform(gen.DefaultUniform(1, 5, 8), 4)
	opts := DefaultOptions(2)
	opts.ForcePathRounding = true
	res, err := Solve(in, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !res.PathRounding || res.STResult == nil {
		t.Fatal("ForcePathRounding ignored")
	}
	if res.Audit.WeightFactor < 0.25-1e-9 {
		t.Fatalf("path rounding broke weight guarantee: %v", res.Audit.WeightFactor)
	}
}

func TestTimingsPopulated(t *testing.T) {
	in := gen.Uniform(gen.DefaultUniform(1, 5, 8), 4)
	res, err := Solve(in, DefaultOptions(2))
	if err != nil {
		t.Fatal(err)
	}
	if res.StageWall("lp-build", "lp-solve") <= 0 || res.LPVars == 0 || res.LPRows == 0 || res.LPPivots == 0 {
		t.Fatalf("timings missing: LP wall %v, %d vars, %d rows, %d pivots",
			res.StageWall("lp-build", "lp-solve"), res.LPVars, res.LPRows, res.LPPivots)
	}
}

func TestStagesPopulated(t *testing.T) {
	in := gen.Uniform(gen.DefaultUniform(2, 6, 12), 3)
	opts := DefaultOptions(1)
	opts.RepairCoverage = true
	opts.StageMemStats = true
	res, err := Solve(in, opts)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"lp-build", "lp-solve", "round", "integralize", "repair", "audit"}
	got := map[string]StageStats{}
	for _, s := range res.Stages {
		got[s.Name] = s
	}
	for _, name := range want {
		s, ok := got[name]
		if !ok {
			t.Fatalf("stage %q missing from Result.Stages (have %v)", name, res.Stages)
		}
		if s.Runs < 1 {
			t.Fatalf("stage %q never ran", name)
		}
	}
	if got["lp-solve"].Wall <= 0 {
		t.Fatal("lp-solve stage has zero wall time")
	}
	// The tail stages run once per attempt.
	if got["round"].Runs != res.Retries+1 {
		t.Fatalf("round ran %d times, want %d", got["round"].Runs, res.Retries+1)
	}
}
