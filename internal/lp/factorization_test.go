package lp

// Locks for the persistent basis factorization: a warm start that adopts a
// carried Factorization must reach the same optimum as one that refactorizes
// at install, a patched column that is basic in the carried file must be
// replaced in it (or, when the replacement pivot vanishes, refactorized),
// and the Forrest–Tomlin update file must stay bounded by the
// refactorization cadence across arbitrarily long patched-re-solve chains
// (the etaDrop truncation per eta would otherwise accumulate past the
// feasibility audit's tolerance).

import (
	"math"
	"testing"

	"repro/internal/stats"
)

// patchEpoch applies one epoch of deterministic churn to a covering LP:
// objective drift on a third of the columns plus an RHS change — the churn
// surface the overlay Patcher drives (costs, thresholds), none of which
// touches the basis matrix B. With a non-nil basis it also rescales some of
// the coefficients of one column that is basic there, the way an aggregate
// unit's weight change rescales its load coefficients: that patch changes B
// itself. The draws depend only on seed and basis, so chains patched with
// the same seed and basis stay identical problems.
func patchEpoch(p *Problem, seed uint64, basis *Basis) {
	rng := stats.NewRNG(seed)
	for j := 0; j < p.NumVars(); j++ {
		if rng.Bernoulli(0.33) {
			p.AddObjectiveCoef(j, rng.Range(-0.15, 0.15))
		}
	}
	r := rng.Intn(p.NumRows())
	_, rhs := p.RHS(r)
	p.SetRHS(r, rhs*rng.Range(0.95, 1.05))
	if basis == nil {
		return
	}
	var cols []int
	for j := 0; j < p.NumVars(); j++ {
		if basis.ColStat[j] == BasisBasic {
			cols = append(cols, j)
		}
	}
	if len(cols) == 0 {
		return
	}
	j := cols[rng.Intn(len(cols))]
	f := rng.Range(0.8, 1.25)
	scaled := false
	for r := 0; r < p.NumRows(); r++ {
		for k := 0; k < p.RowLen(r); k++ {
			if c := p.RowCoef(r, k); c.Var == j && (!scaled || rng.Bernoulli(0.5)) {
				p.SetRowCoef(r, k, c.Val*f)
				scaled = true
			}
		}
	}
}

// patchVariants names the two churn surfaces the persistence properties run
// under: costs and thresholds only, and the same plus a basic-column rescale.
var patchVariants = []struct {
	name    string
	rescale bool
}{{"costs", false}, {"basic-rescale", true}}

// TestPersistedFactorizationAcrossPatchedEpochs is the property test for the
// persistent factorization: two chains solve the same 12-epoch patched
// re-solve sequence, one adopting the carried eta file (the default), one
// refactorizing at every install. Both must stay Optimal with matching
// objectives and feasible points every epoch, and the adopting chain must
// actually have adopted (FT-updates fired) — otherwise the test is vacuous.
// Under the basic-rescale variant the adopting chain must also have replaced
// patched basic columns in its carried files.
func TestPersistedFactorizationAcrossPatchedEpochs(t *testing.T) {
	for _, v := range patchVariants {
		t.Run(v.name, func(t *testing.T) {
			persistedAcrossPatchedEpochs(t, v.rescale)
		})
	}
}

func persistedAcrossPatchedEpochs(t *testing.T, rescale bool) {
	const epochs = 12
	var totalPersist, totalRefactor SolveStats
	for trial := 0; trial < 10; trial++ {
		seed := uint64(9000 + trial)
		pA := randomCovering(seed) // adopts persisted factorizations
		pB := randomCovering(seed) // refactorizes at every install
		solA, err := pA.SolveOpts(Options{})
		if err != nil {
			t.Fatal(err)
		}
		solB, err := pB.SolveOpts(Options{RefactorOnInstall: true})
		if err != nil {
			t.Fatal(err)
		}
		for e := 0; e < epochs; e++ {
			eseed := seed ^ uint64(e)*0x9e3779b97f4a7c15
			var basis *Basis
			if rescale {
				basis = solA.Basis
			}
			patchEpoch(pA, eseed, basis)
			patchEpoch(pB, eseed, basis)
			solA, err = pA.SolveOpts(Options{WarmStart: solA.Basis})
			if err != nil {
				t.Fatal(err)
			}
			solB, err = pB.SolveOpts(Options{WarmStart: solB.Basis, RefactorOnInstall: true})
			if err != nil {
				t.Fatal(err)
			}
			if solA.Status != solB.Status {
				t.Fatalf("trial %d epoch %d: status %v (persisted) vs %v (refactorized)",
					trial, e, solA.Status, solB.Status)
			}
			if solA.Status != Optimal {
				t.Fatalf("trial %d epoch %d: patched re-solve not optimal: %v", trial, e, solA.Status)
			}
			// Same optimum: trajectories may differ when near-tie pivots
			// resolve differently under the two elimination forms, but the
			// optimal value must agree to solver tolerance.
			if math.Abs(solA.Objective-solB.Objective) > 1e-9*(1+math.Abs(solB.Objective)) {
				t.Fatalf("trial %d epoch %d: persisted %.17g != refactorized %.17g",
					trial, e, solA.Objective, solB.Objective)
			}
			if err := pA.CheckFeasible(solA.X, 1e-6); err != nil {
				t.Fatalf("trial %d epoch %d: persisted point infeasible: %v", trial, e, err)
			}
			totalPersist.Add(solA.Stats)
			totalRefactor.Add(solB.Stats)
		}
	}
	t.Logf("persisted: %+v | refactorized: %+v", totalPersist, totalRefactor)
	if totalPersist.FTUpdates == 0 {
		t.Fatal("persisting chain never adopted a carried factorization")
	}
	if totalRefactor.FTUpdates != 0 || totalRefactor.Replacements != 0 {
		t.Fatal("RefactorOnInstall chain adopted a factorization")
	}
	if rescale && totalPersist.Replacements == 0 {
		t.Fatal("basic-column rescales never replaced a column in a carried factorization")
	}
	if totalPersist.Refactorizations >= totalRefactor.Refactorizations {
		t.Fatalf("persistence bought no refactorizations: %d vs %d",
			totalPersist.Refactorizations, totalRefactor.Refactorizations)
	}
}

// TestPersistedFactorizationSameProblemAdopts: re-solving the identical
// problem from its own optimal basis must adopt the carried file — zero
// refactorizations, one FT install, the same optimum (to a few ulps: the
// adopting solve recomputes the basic values through the carried file,
// while the original solve reported values that accumulated pivot drift).
func TestPersistedFactorizationSameProblemAdopts(t *testing.T) {
	p := randomCovering(4242)
	first, err := p.Solve()
	if err != nil || first.Status != Optimal {
		t.Fatalf("%v %v", first.Status, err)
	}
	if first.Basis == nil || first.Basis.Fact == nil {
		t.Fatal("optimal solve carried no factorization handle")
	}
	again, err := p.SolveOpts(Options{WarmStart: first.Basis})
	if err != nil {
		t.Fatal(err)
	}
	if again.Status != Optimal || math.Abs(again.Objective-first.Objective) > 1e-12*(1+math.Abs(first.Objective)) {
		t.Fatalf("re-solve: %v %.17g, want optimal %.17g", again.Status, again.Objective, first.Objective)
	}
	if again.Stats.FTUpdates != 1 {
		t.Fatalf("FTUpdates = %d, want 1 (adoption)", again.Stats.FTUpdates)
	}
	if again.Stats.Refactorizations != 0 {
		t.Fatalf("re-solve of an unchanged problem refactorized %d times", again.Stats.Refactorizations)
	}
	if again.Iterations > 2 {
		t.Fatalf("re-solve from adopted factorization took %d iterations", again.Iterations)
	}
}

// keepsScale reports whether setting entry pos of row r to v leaves the
// row's scale where it is, so that the patch changes that one entry of the
// stored matrix and nothing else.
func keepsScale(p *Problem, r, pos int, v float64) bool {
	coefs := p.RowCoefs(r)
	coefs[pos].Val = v
	return rowScale(coefs, 1) == p.rows[r].scale
}

// TestPersistedFactorizationReplacesPatchedBasicColumn: patching a column
// that is basic in the carried file changes B itself, so the adoption must
// replace that column in the file — one product-form eta, no
// refactorization — and still reach the optimum of a cold solve and of a
// refactorize-on-install warm solve: the same objective, point and duals.
// Both patches keep their row's scale; a patch that moves it re-stores the
// whole row (TestRescaledRowReplacesItsBasicColumns). A second patch makes
// the replacement pivot vanish (the new column lies in the span of the
// other basic columns), which the install must answer by refactorizing
// instead of adopting — B′ is singular then, so the solve ends cold — and
// still match.
func TestPersistedFactorizationReplacesPatchedBasicColumn(t *testing.T) {
	p := randomCovering(777)
	p.Precompute()
	first, err := p.Solve()
	if err != nil || first.Status != Optimal {
		t.Fatalf("%v %v", first.Status, err)
	}
	// Find a structural column that is basic and its basis row.
	target, basisRow := -1, -1
	for r, c := range first.Basis.Fact.basis {
		if c < p.NumVars() {
			target, basisRow = c, r
			break
		}
	}
	if target < 0 {
		t.Fatal("no basic structural column found")
	}
	var rows, pos []int // the target column's entries
	for r := 0; r < p.NumRows(); r++ {
		for k := 0; k < p.RowLen(r); k++ {
			if p.RowCoef(r, k).Var == target {
				rows, pos = append(rows, r), append(pos, k)
			}
		}
	}
	patched := -1
	for i, r := range rows {
		if keepsScale(p, r, pos[i], p.RowCoef(r, pos[i]).Val*1.25) {
			patched = i
			break
		}
	}
	if patched < 0 {
		t.Fatal("every ×1.25 patch of the target column moves its row's scale")
	}
	p.SetRowCoef(rows[patched], pos[patched], p.RowCoef(rows[patched], pos[patched]).Val*1.25)
	warm, err := p.SolveOpts(Options{WarmStart: first.Basis})
	if err != nil {
		t.Fatal(err)
	}
	if warm.Status != Optimal {
		t.Fatalf("warm re-solve after basic-column patch: %v", warm.Status)
	}
	if warm.Stats.FTUpdates != 1 || warm.Stats.Replacements != 1 || warm.Stats.Refactorizations != 0 {
		t.Fatalf("basic-column patch: %+v, want one adoption, one replacement, no refactorization", warm.Stats)
	}
	sameOptimum(t, "replaced", p, first.Basis, warm)

	// ρ = row basisRow of the basis inverse. Replacing the column basic in
	// that row only rescales the row of the inverse (by 1/pivot), so ρ
	// taken after the first patch is proportional to the carried B's.
	// Rewriting one of the target's stored entries so that ρ·a′ = 0 zeroes
	// the pivot the replacement would divide by. The entry is the one with
	// the largest |ρ_i| among those whose rewrite keeps the row's scale.
	s := newSparse(p, Options{})
	if !s.installWarm(first.Basis) {
		t.Fatal("could not install the first basis")
	}
	rho := make([]float64, p.NumRows())
	rho[basisRow] = 1
	s.btran(rho)
	stored := func(i int) float64 { return p.rows[rows[i]].coefs[pos[i]].Val }
	big, zeroing := -1, 0.0
	for k, r := range rows {
		if math.Abs(rho[r]) < 1e-9 || (big >= 0 && math.Abs(rho[r]) <= math.Abs(rho[rows[big]])) {
			continue
		}
		dot := 0.0
		for i, ri := range rows {
			if i != k {
				dot += rho[ri] * stored(i)
			}
		}
		if v := -dot / rho[r] * p.rows[r].scale; keepsScale(p, r, pos[k], v) {
			big, zeroing = k, v
		}
	}
	if big < 0 {
		t.Fatal("target column has no entry that reaches its basis row and keeps its scale")
	}
	p.SetRowCoef(rows[big], pos[big], zeroing)
	zero, err := p.SolveOpts(Options{WarmStart: first.Basis})
	if err != nil {
		t.Fatal(err)
	}
	if zero.Status != Optimal {
		t.Fatalf("warm re-solve after zero-pivot patch: %v", zero.Status)
	}
	t.Logf("replaced: %+v | zero pivot: %+v", warm.Stats, zero.Stats)
	if zero.Stats.FTUpdates != 0 || zero.Stats.Replacements != 0 || zero.Stats.Refactorizations == 0 {
		t.Fatalf("zero-pivot patch: %+v, want a refactorization and no adoption", zero.Stats)
	}
	sameOptimum(t, "zero pivot", p, first.Basis, zero)
}

// sameOptimum requires got, a warm solve of p from basis, to match a cold
// solve and a refactorize-on-install warm solve of p in objective, point and
// duals.
func sameOptimum(t *testing.T, name string, p *Problem, basis *Basis, got *Solution) {
	t.Helper()
	cold, err := p.SolveOpts(Options{})
	if err != nil {
		t.Fatal(err)
	}
	refac, err := p.SolveOpts(Options{WarmStart: basis, RefactorOnInstall: true})
	if err != nil {
		t.Fatal(err)
	}
	near := func(a, b float64) bool { return math.Abs(a-b) <= 1e-9*(1+math.Abs(b)) }
	for _, ref := range []struct {
		arm string
		sol *Solution
	}{{"cold", cold}, {"refactorize-on-install", refac}} {
		if ref.sol.Status != Optimal || !near(got.Objective, ref.sol.Objective) {
			t.Fatalf("%s: warm %.17g != %s %v %.17g", name, got.Objective, ref.arm, ref.sol.Status, ref.sol.Objective)
		}
		for j := range got.X {
			if !near(got.X[j], ref.sol.X[j]) {
				t.Fatalf("%s: x[%d] warm %.17g != %s %.17g", name, j, got.X[j], ref.arm, ref.sol.X[j])
			}
		}
		for r := range got.Duals {
			if !near(got.Duals[r], ref.sol.Duals[r]) {
				t.Fatalf("%s: dual %d warm %.17g != %s %.17g", name, r, got.Duals[r], ref.arm, ref.sol.Duals[r])
			}
		}
	}
}

// TestPersistedFactorizationUpdateEtasBounded is the etaDrop drift bound: a
// long chain of patched warm re-solves keeps appending Forrest–Tomlin
// update etas (pivots and column replacements) to the carried file, and the
// install-time cadence check must collapse the file by refactorizing before
// it outgrows the refactorization cadence — so the accumulated per-eta
// truncation error never degrades the feasibility audit. Every epoch's
// carried handle is checked against the bound and every epoch's point
// against the feasibility tolerance.
func TestPersistedFactorizationUpdateEtasBounded(t *testing.T) {
	for _, v := range patchVariants {
		t.Run(v.name, func(t *testing.T) {
			updateEtasBounded(t, v.rescale)
		})
	}
}

func updateEtasBounded(t *testing.T, rescale bool) {
	p := randomCovering(31337)
	sol, err := p.Solve()
	if err != nil || sol.Status != Optimal {
		t.Fatalf("%v %v", sol.Status, err)
	}
	bound := 16 + 2*int(math.Sqrt(float64(p.NumRows())))
	var total SolveStats
	for e := 0; e < 60; e++ {
		var basis *Basis
		if rescale {
			basis = sol.Basis
		}
		patchEpoch(p, uint64(100+e), basis)
		sol, err = p.SolveOpts(Options{WarmStart: sol.Basis})
		if err != nil {
			t.Fatal(err)
		}
		if sol.Status != Optimal {
			t.Fatalf("epoch %d: %v", e, sol.Status)
		}
		if sol.Basis == nil || sol.Basis.Fact == nil {
			t.Fatalf("epoch %d: no factorization carried", e)
		}
		if n := sol.Basis.Fact.UpdateEtas(); n >= bound {
			t.Fatalf("epoch %d: carried update file holds %d etas, cadence bound is %d", e, n, bound)
		}
		if err := p.CheckFeasible(sol.X, 1e-6); err != nil {
			t.Fatalf("epoch %d: feasibility degraded: %v", e, err)
		}
		total.Add(sol.Stats)
	}
	t.Logf("60 patched epochs: %+v (update-eta bound %d)", total, bound)
	if total.FTUpdates == 0 {
		t.Fatal("chain never adopted a carried factorization")
	}
	if rescale && total.Replacements == 0 {
		t.Fatal("basic-column rescales never replaced a column in a carried factorization")
	}
	if total.Refactorizations == 0 {
		t.Fatal("cadence never collapsed the update file across 60 epochs")
	}
}
