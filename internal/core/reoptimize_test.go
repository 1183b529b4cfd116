package core

import (
	"testing"

	"repro/internal/gen"
)

func TestReoptimizeReducesChurn(t *testing.T) {
	in := gen.Uniform(gen.DefaultUniform(2, 8, 16), 21)
	opts := DefaultOptions(5)
	opts.RepairCoverage = true
	base, err := Solve(in, opts)
	if err != nil {
		t.Fatal(err)
	}
	// Perturb the network slightly: jitter some costs.
	perturbed := in.Clone()
	rngSeed := 0
	for i := 0; i < perturbed.NumReflectors; i++ {
		for j := 0; j < perturbed.NumSinks; j++ {
			rngSeed++
			if rngSeed%3 == 0 {
				perturbed.RefSinkCost[i][j] *= 1.15
			}
		}
	}
	cold, err := Reoptimize(perturbed, base.Design, 0, opts)
	if err != nil {
		t.Fatal(err)
	}
	sticky, err := Reoptimize(perturbed, base.Design, 0.5, opts)
	if err != nil {
		t.Fatal(err)
	}
	if sticky.ArcChurn > cold.ArcChurn {
		t.Fatalf("stickiness increased churn: %d vs %d", sticky.ArcChurn, cold.ArcChurn)
	}
	// Both must still meet the paper's guarantee on the true instance.
	if sticky.Audit.WeightFactor < 0.25-1e-9 {
		t.Fatalf("sticky re-solve broke weight guarantee: %v", sticky.Audit.WeightFactor)
	}
}

func TestReoptimizeNoPriorIsColdSolve(t *testing.T) {
	in := gen.Uniform(gen.DefaultUniform(1, 5, 8), 9)
	re, err := Reoptimize(in, nil, 0.5, DefaultOptions(3))
	if err != nil {
		t.Fatal(err)
	}
	plain, err := Solve(in, DefaultOptions(3))
	if err != nil {
		t.Fatal(err)
	}
	if re.Audit.Cost != plain.Audit.Cost {
		t.Fatalf("no-prior reoptimize differs from cold solve: %v vs %v", re.Audit.Cost, plain.Audit.Cost)
	}
	if re.ArcChurn != 0 {
		t.Fatal("churn must be 0 without a prior")
	}
}

func TestReoptimizeAuditUsesTrueCosts(t *testing.T) {
	in := gen.Uniform(gen.DefaultUniform(1, 5, 8), 10)
	base, err := Solve(in, DefaultOptions(2))
	if err != nil {
		t.Fatal(err)
	}
	re, err := Reoptimize(in, base.Design, 0.9, DefaultOptions(2))
	if err != nil {
		t.Fatal(err)
	}
	// Evaluated on the true instance, the audit cost must match a fresh
	// audit of the design.
	want := re.Design.Cost(in)
	if re.Audit.Cost != want {
		t.Fatalf("audit cost %v != true cost %v (bias leaked)", re.Audit.Cost, want)
	}
}

func TestReoptimizeInvalidStickinessRejected(t *testing.T) {
	in := gen.Uniform(gen.DefaultUniform(1, 4, 6), 4)
	base, err := Solve(in, DefaultOptions(1))
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range []float64{-0.1, 1, 1.5} {
		if _, err := Reoptimize(in, base.Design, s, DefaultOptions(1)); err == nil {
			t.Fatalf("stickiness %g must be rejected", s)
		}
	}
	// The boundary values of the valid range still work.
	if _, err := Reoptimize(in, base.Design, 0, DefaultOptions(1)); err != nil {
		t.Fatalf("stickiness 0 rejected: %v", err)
	}
	if _, err := Reoptimize(in, base.Design, 0.999, DefaultOptions(1)); err != nil {
		t.Fatalf("stickiness 0.999 rejected: %v", err)
	}
}

func TestReoptimizeWarmStartFewerIterations(t *testing.T) {
	in := gen.Uniform(gen.DefaultUniform(2, 8, 16), 21)
	opts := DefaultOptions(5)
	base, err := Solve(in, opts)
	if err != nil {
		t.Fatal(err)
	}
	if base.Frac.Basis == nil {
		t.Fatal("solve returned no warm-start basis")
	}
	// Churn: jitter a third of the arc costs.
	perturbed := in.Clone()
	n := 0
	for i := 0; i < perturbed.NumReflectors; i++ {
		for j := 0; j < perturbed.NumSinks; j++ {
			n++
			if n%3 == 0 {
				perturbed.RefSinkCost[i][j] *= 1.15
			}
		}
	}
	cold, err := Reoptimize(perturbed, base.Design, 0.5, opts)
	if err != nil {
		t.Fatal(err)
	}
	warm, err := reoptimize(perturbed, base.Design, 0.5, opts, &carry{basis: base.Frac.Basis})
	if err != nil {
		t.Fatal(err)
	}
	// Same biased LP, so the optima must agree; the warm re-solve must
	// spend strictly fewer simplex iterations than the cold one.
	if diff := warm.LPCost - cold.LPCost; diff > 1e-6 || diff < -1e-6 {
		t.Fatalf("warm LP cost %.9f != cold %.9f", warm.LPCost, cold.LPCost)
	}
	if warm.Frac.Iterations >= cold.Frac.Iterations {
		t.Fatalf("warm start did not reduce iterations: warm=%d cold=%d",
			warm.Frac.Iterations, cold.Frac.Iterations)
	}
	t.Logf("churn re-solve pivots: warm=%d cold=%d", warm.Frac.Iterations, cold.Frac.Iterations)
}
