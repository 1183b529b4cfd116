package lpmodel

import (
	"math"
	"testing"

	"repro/internal/gen"
	"repro/internal/lp"
	"repro/internal/netmodel"
)

func TestVarMapLayout(t *testing.T) {
	in := gen.Uniform(gen.DefaultUniform(2, 3, 4), 1)
	m := NewVarMap(in)
	if m.N != 3+2*3+3*4 {
		t.Fatalf("N = %d", m.N)
	}
	seen := make(map[int]bool)
	check := func(idx int) {
		if idx < 0 || idx >= m.N || seen[idx] {
			t.Fatalf("index collision or out of range: %d", idx)
		}
		seen[idx] = true
	}
	for i := 0; i < 3; i++ {
		check(m.Z(i))
	}
	for k := 0; k < 2; k++ {
		for i := 0; i < 3; i++ {
			check(m.Y(k, i))
		}
	}
	for i := 0; i < 3; i++ {
		for j := 0; j < 4; j++ {
			check(m.X(i, j))
		}
	}
	if len(seen) != m.N {
		t.Fatalf("covered %d of %d indices", len(seen), m.N)
	}
}

func TestSolveLPBasics(t *testing.T) {
	in := gen.Uniform(gen.DefaultUniform(2, 5, 8), 3)
	fs, err := SolveLP(in, DefaultOptions(in))
	if err != nil {
		t.Fatal(err)
	}
	if fs.Cost <= 0 {
		t.Fatalf("LP cost = %v", fs.Cost)
	}
	// Structured solution must respect the constraints it was built from.
	for i := range fs.X {
		for j := range fs.X[i] {
			k := in.Commodity[j]
			if fs.X[i][j] > fs.Y[k][i]+1e-6 {
				t.Fatalf("x > y at (%d,%d)", i, j)
			}
		}
	}
	for k := range fs.Y {
		for i := range fs.Y[k] {
			if fs.Y[k][i] > fs.Z[i]+1e-6 {
				t.Fatalf("y > z at (%d,%d)", k, i)
			}
		}
	}
	// Covering: Σ w x ≥ W per sink.
	for j := 0; j < in.NumSinks; j++ {
		got := 0.0
		for i := 0; i < in.NumReflectors; i++ {
			got += in.CappedWeight(i, j) * fs.X[i][j]
		}
		if got < in.Demand(j)-1e-5 {
			t.Fatalf("sink %d covered %v < %v", j, got, in.Demand(j))
		}
	}
	// Fanout: Σ_j x ≤ F_i z_i.
	for i := 0; i < in.NumReflectors; i++ {
		use := 0.0
		for j := 0; j < in.NumSinks; j++ {
			use += fs.X[i][j]
		}
		if use > in.Fanout[i]*fs.Z[i]+1e-5 {
			t.Fatalf("reflector %d fanout %v > %v", i, use, in.Fanout[i]*fs.Z[i])
		}
	}
	// CostOf must agree with the LP objective.
	if math.Abs(fs.CostOf(in)-fs.Cost) > 1e-6 {
		t.Fatalf("CostOf=%v vs Cost=%v", fs.CostOf(in), fs.Cost)
	}
}

func TestCuttingPlaneNeverRaisesLP(t *testing.T) {
	// Constraint (4) is implied by (1),(2),(3),(6) in the IP (Claim 2.1)
	// but in the *LP* it can cut off fractional points, so LP cost with
	// the plane is ≥ without; and both are ≤ IP. Verify the ordering.
	in := gen.Uniform(gen.DefaultUniform(2, 4, 6), 5)
	with, err := SolveLP(in, Options{CuttingPlane: true})
	if err != nil {
		t.Fatal(err)
	}
	without, err := SolveLP(in, Options{CuttingPlane: false})
	if err != nil {
		t.Fatal(err)
	}
	if with.Cost < without.Cost-1e-6 {
		t.Fatalf("cutting plane lowered the LP: %v < %v", with.Cost, without.Cost)
	}
}

func TestColorConstraintsBind(t *testing.T) {
	// Two reflectors of the same color, a sink needing two copies: with
	// colors on, the LP must spread across colors or pay for it.
	in := netmodel.NewZeroInstance(1, 3, 1)
	for i := 0; i < 3; i++ {
		in.ReflectorCost[i] = 1
		in.Fanout[i] = 5
		in.SrcRefLoss[0][i] = 0.1
		in.SrcRefCost[0][i] = 0
		in.RefSinkLoss[i][0] = 0.1
		in.RefSinkCost[i][0] = 0
	}
	// Third reflector is expensive: un-colored LP would prefer the two
	// cheap same-color ones.
	in.ReflectorCost[2] = 50
	in.Commodity[0] = 0
	// Demand two clean copies: failure per path ~0.19; need (0.19)^2.
	in.Threshold[0] = 1 - 0.19*0.19*1.05
	in.Color = []int{0, 0, 1}
	in.NumColors = 2

	plain, err := SolveLP(in, Options{CuttingPlane: true, Colors: false})
	if err != nil {
		t.Fatal(err)
	}
	colored, err := SolveLP(in, Options{CuttingPlane: true, Colors: true})
	if err != nil {
		t.Fatal(err)
	}
	if colored.Cost <= plain.Cost+1e-9 {
		t.Fatalf("color constraint should raise cost: %v vs %v", colored.Cost, plain.Cost)
	}
	// With colors, x from color-0 reflectors must total ≤ 1.
	if colored.X[0][0]+colored.X[1][0] > 1+1e-6 {
		t.Fatalf("color cap violated in LP: %v", colored.X[0][0]+colored.X[1][0])
	}
}

func TestEdgeCapsAsBounds(t *testing.T) {
	in := gen.Uniform(gen.DefaultUniform(1, 3, 3), 2)
	in.EdgeCap = [][]float64{{0.5, 1, 1}, {1, 1, 1}, {1, 1, 1}}
	fs, err := SolveLP(in, DefaultOptions(in))
	if err != nil {
		t.Fatal(err)
	}
	if fs.X[0][0] > 0.5+1e-9 {
		t.Fatalf("edge cap ignored: x=%v", fs.X[0][0])
	}
}

func TestInfeasibleLPReported(t *testing.T) {
	in := netmodel.NewZeroInstance(1, 1, 1)
	in.ReflectorCost[0] = 1
	in.Fanout[0] = 1
	in.SrcRefLoss[0][0] = 0.5
	in.RefSinkLoss[0][0] = 0.5
	in.SrcRefCost[0][0] = 1
	in.RefSinkCost[0][0] = 1
	in.Threshold[0] = 0.99999 // one 75%-loss path cannot reach five nines
	_, err := SolveLP(in, DefaultOptions(in))
	if err == nil {
		t.Fatal("expected infeasibility")
	}
}

func TestBandwidthExtensionScalesFanout(t *testing.T) {
	// §6.1: a stream with B=2 consumes twice the fanout.
	in := gen.Uniform(gen.DefaultUniform(2, 3, 6), 8)
	base, err := SolveLP(in, DefaultOptions(in))
	if err != nil {
		t.Fatal(err)
	}
	heavy := in.Clone()
	heavy.Bandwidth = []float64{2, 2}
	bw, err := SolveLP(heavy, DefaultOptions(heavy))
	if err != nil {
		// Heavier streams can make the instance infeasible; that is a
		// legitimate outcome for this random instance.
		t.Skipf("heavy instance infeasible: %v", err)
	}
	if bw.Cost < base.Cost-1e-9 {
		t.Fatalf("doubling bandwidth cannot lower cost: %v < %v", bw.Cost, base.Cost)
	}
}

func TestUnpackClamps(t *testing.T) {
	in := gen.Uniform(gen.DefaultUniform(1, 2, 2), 1)
	m := NewVarMap(in)
	x := make([]float64, m.N)
	x[m.Z(0)] = 1.0000001
	x[m.X(0, 0)] = -1e-9
	fs := Unpack(in, m, x, 0, 0)
	if fs.Z[0] != 1 || fs.X[0][0] != 0 {
		t.Fatal("Unpack must clamp to [0,1]")
	}
}

func TestBuildRowCount(t *testing.T) {
	in := gen.Uniform(gen.DefaultUniform(2, 3, 4), 1)
	p, _ := Build(in, Options{CuttingPlane: true})
	// rows: (1) S*R + (2) R*D + (3) R + (4) R*S(nonempty commodities) +
	// (5) D
	want := 2*3 + 3*4 + 3 + 3*2 + 4
	if p.NumRows() != want {
		t.Fatalf("rows = %d, want %d", p.NumRows(), want)
	}
	var _ = lp.LE
}

func TestFixedShapePinsRowsAndOptimum(t *testing.T) {
	in := gen.Uniform(gen.DefaultUniform(2, 4, 6), 11)
	// Deactivate two sinks: the default build drops their covering rows,
	// the fixed-shape build keeps degenerate 0 >= 0 rows in their place.
	in.Threshold[1] = 0
	in.Threshold[4] = 0
	opts := DefaultOptions(in)
	pDef, _ := Build(in, opts)
	opts.FixedShape = true
	pFix, _ := Build(in, opts)
	if pFix.NumRows() != pDef.NumRows()+2 {
		t.Fatalf("fixed-shape rows = %d, default = %d, want +2", pFix.NumRows(), pDef.NumRows())
	}
	// Shape must depend only on dimensions: reactivating every sink keeps
	// the fixed-shape row count unchanged.
	all := in.Clone()
	all.Threshold[1] = 0.99
	all.Threshold[4] = 0.99
	pAll, _ := Build(all, Options{CuttingPlane: true, FixedShape: true})
	if pAll.NumRows() != pFix.NumRows() {
		t.Fatalf("row count moved with thresholds: %d vs %d", pAll.NumRows(), pFix.NumRows())
	}
	// The dead rows are inert: optima agree.
	sDef, err := pDef.Solve()
	if err != nil {
		t.Fatal(err)
	}
	sFix, err := pFix.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if diff := sDef.Objective - sFix.Objective; diff > 1e-7 || diff < -1e-7 {
		t.Fatalf("fixed-shape optimum %.9f != default %.9f", sFix.Objective, sDef.Objective)
	}
	// And a basis from one fixed-shape solve warm-starts the reactivated
	// model (same shape) without error.
	mopts := Options{CuttingPlane: true, FixedShape: true}
	if _, err := solveWarm(all, mopts, sFix.Basis); err != nil {
		t.Fatal(err)
	}
}

// TestCapRowAndCapDuals locks the capacity-row arithmetic and the dual
// plumbing: VarMap.CapRow must point at the row whose coefficient pattern is
// constraint (3) — D unit loads then −F_i on z_i — and the CapDuals a solve
// returns must be sign-correct shadow prices obeying complementary
// slackness on the capacity rows.
func TestCapRowAndCapDuals(t *testing.T) {
	cfg := gen.DefaultUniform(2, 4, 12)
	cfg.FanoutLo, cfg.FanoutHi = 3, 4 // tight capacity: some rows must bind
	in := gen.Uniform(cfg, 11)
	p, m := Build(in, DefaultOptions(in))
	S, R, D := in.Dims()
	for i := 0; i < R; i++ {
		r := m.CapRow(i)
		if r != S*R+R*D+i {
			t.Fatalf("CapRow(%d) = %d, want %d", i, r, S*R+R*D+i)
		}
		if p.RowLen(r) != D+1 {
			t.Fatalf("capacity row %d has %d coefficients, want %d", i, p.RowLen(r), D+1)
		}
		zc := p.RowCoef(r, D)
		if zc.Var != m.Z(i) || zc.Val != -in.Fanout[i] {
			t.Fatalf("capacity row %d: z coefficient %+v, want var %d val %g", i, zc, m.Z(i), -in.Fanout[i])
		}
	}
	fs, err := SolveBuiltOpts(in, p, m, lp.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(fs.CapDuals) != R {
		t.Fatalf("CapDuals has %d entries, want %d", len(fs.CapDuals), R)
	}
	bound := 0
	for i := 0; i < R; i++ {
		y := fs.CapDuals[i]
		if y > 1e-7 {
			t.Fatalf("reflector %d: capacity dual %g > 0 on a ≤ row of a minimization", i, y)
		}
		use := 0.0
		for j := 0; j < D; j++ {
			use += in.UnitLoad(j) * fs.X[i][j]
		}
		slack := in.Fanout[i]*fs.Z[i] - use
		if math.Abs(y*slack) > 1e-5*(1+in.Fanout[i]) {
			t.Fatalf("reflector %d: dual %g with slack %g violates complementary slackness", i, y, slack)
		}
		if y < -1e-7 {
			bound++
		}
	}
	if bound == 0 {
		t.Fatal("tight-capacity instance produced no binding capacity row — the duals test is vacuous")
	}
}
