package lp

// Locks for basis/factorization serialization: a basis exported to JSON and
// restored onto an identically built Problem must warm-start exactly like
// the in-memory handle it came from (adoption fires, bit-identical solve),
// and corrupted payloads must be refused at restore time rather than fed to
// the solver.

import (
	"encoding/json"
	"testing"
)

// roundTrip pushes a BasisData through JSON, the way a snapshot file does.
func roundTrip(t *testing.T, d *BasisData) *BasisData {
	t.Helper()
	buf, err := json.Marshal(d)
	if err != nil {
		t.Fatal(err)
	}
	var out BasisData
	if err := json.Unmarshal(buf, &out); err != nil {
		t.Fatal(err)
	}
	return &out
}

// TestBasisSerializeRoundTripAdopts is the headline lock: solve, export the
// optimal basis, round-trip it through JSON, rebuild the same Problem from
// scratch (a second randomCovering with the same seed — the restart case),
// restore, and warm-start. The restored chain must adopt the factorization
// (FTUpdates fires, zero refactorizations) and land bit-identically on the
// in-memory warm start: same objective, same iteration count, same point.
func TestBasisSerializeRoundTripAdopts(t *testing.T) {
	for trial := 0; trial < 5; trial++ {
		seed := uint64(5150 + trial)
		pMem := randomCovering(seed)
		first, err := pMem.Solve()
		if err != nil || first.Status != Optimal {
			t.Fatalf("trial %d: %v %v", trial, first.Status, err)
		}
		if first.Basis == nil || first.Basis.Fact == nil {
			t.Fatalf("trial %d: optimal solve carried no factorization", trial)
		}

		data := roundTrip(t, first.Basis.Export())

		// The restart arm: an independently built, structurally identical
		// Problem, as the daemon rebuilds from its persisted instance.
		pNew := randomCovering(seed)
		restored, err := RestoreBasis(pNew, data)
		if err != nil {
			t.Fatalf("trial %d: restore: %v", trial, err)
		}
		if restored.Fact == nil {
			t.Fatalf("trial %d: restore dropped the factorization", trial)
		}

		warmMem, err := pMem.SolveOpts(Options{WarmStart: first.Basis})
		if err != nil {
			t.Fatal(err)
		}
		warmNew, err := pNew.SolveOpts(Options{WarmStart: restored})
		if err != nil {
			t.Fatal(err)
		}
		if warmNew.Status != Optimal {
			t.Fatalf("trial %d: restored warm start: %v", trial, warmNew.Status)
		}
		if warmNew.Stats.FTUpdates != 1 {
			t.Fatalf("trial %d: restored warm start FTUpdates = %d, want 1 (adoption)",
				trial, warmNew.Stats.FTUpdates)
		}
		if warmNew.Stats.Refactorizations != 0 {
			t.Fatalf("trial %d: restored warm start refactorized %d times",
				trial, warmNew.Stats.Refactorizations)
		}
		if warmNew.Objective != warmMem.Objective {
			t.Fatalf("trial %d: restored objective %.17g != in-memory %.17g",
				trial, warmNew.Objective, warmMem.Objective)
		}
		if warmNew.Iterations != warmMem.Iterations {
			t.Fatalf("trial %d: restored pivots %d != in-memory %d",
				trial, warmNew.Iterations, warmMem.Iterations)
		}
		for j := range warmMem.X {
			if warmNew.X[j] != warmMem.X[j] {
				t.Fatalf("trial %d: x[%d] = %.17g restored vs %.17g in-memory",
					trial, j, warmNew.X[j], warmMem.X[j])
			}
		}
	}
}

// TestBasisSerializePatchedChainMatches runs the production shape: a
// snapshot taken mid-chain must let the restored arm continue the patched
// re-solve sequence bit-identically to the uninterrupted one.
func TestBasisSerializePatchedChainMatches(t *testing.T) {
	seed := uint64(6060)
	pA := randomCovering(seed) // uninterrupted
	pB := randomCovering(seed) // snapshot/restore at epoch 6
	solA, err := pA.Solve()
	if err != nil || solA.Status != Optimal {
		t.Fatalf("%v %v", solA.Status, err)
	}
	solB, err := pB.Solve()
	if err != nil {
		t.Fatal(err)
	}
	basisB := solB.Basis
	for e := 0; e < 12; e++ {
		if e == 6 {
			// "Restart": serialize the carried basis, rebuild the Problem by
			// replaying the same build+patch history, restore onto it.
			data := roundTrip(t, basisB.Export())
			pB = randomCovering(seed)
			for pe := 0; pe < e; pe++ {
				patchEpoch(pB, seed^uint64(pe)*0x9e3779b97f4a7c15, nil)
			}
			basisB, err = RestoreBasis(pB, data)
			if err != nil {
				t.Fatalf("epoch %d restore: %v", e, err)
			}
		}
		eseed := seed ^ uint64(e)*0x9e3779b97f4a7c15
		patchEpoch(pA, eseed, nil)
		patchEpoch(pB, eseed, nil)
		solA, err = pA.SolveOpts(Options{WarmStart: solA.Basis})
		if err != nil {
			t.Fatal(err)
		}
		solB, err = pB.SolveOpts(Options{WarmStart: basisB})
		if err != nil {
			t.Fatal(err)
		}
		basisB = solB.Basis
		if solA.Status != solB.Status || solA.Objective != solB.Objective ||
			solA.Iterations != solB.Iterations {
			t.Fatalf("epoch %d: restored chain diverged: %v/%.17g/%d vs %v/%.17g/%d",
				e, solB.Status, solB.Objective, solB.Iterations,
				solA.Status, solA.Objective, solA.Iterations)
		}
	}
}

// TestRestoreBasisRejectsCorruptData: every locally checkable invariant
// violation must fail restore with an error, not reach the solver.
func TestRestoreBasisRejectsCorruptData(t *testing.T) {
	p := randomCovering(808)
	sol, err := p.Solve()
	if err != nil || sol.Status != Optimal {
		t.Fatalf("%v %v", sol.Status, err)
	}
	good := sol.Basis.Export()

	cases := []struct {
		name    string
		corrupt func(d *BasisData)
	}{
		{"wrong num_vars", func(d *BasisData) { d.NumVars++ }},
		{"wrong num_rows", func(d *BasisData) { d.NumRows++ }},
		{"short col_stat", func(d *BasisData) { d.ColStat = d.ColStat[:len(d.ColStat)-1] }},
		{"bad status value", func(d *BasisData) { d.ColStat[0] = 7 }},
		{"fact row mismatch", func(d *BasisData) { d.Fact.M++; d.NumRows++ }},
		{"short fact basis", func(d *BasisData) { d.Fact.Basis = d.Fact.Basis[:len(d.Fact.Basis)-1] }},
		{"basic column out of range", func(d *BasisData) { d.Fact.Basis[0] = -1 }},
		{"short art_sign", func(d *BasisData) { d.Fact.ArtSign = d.Fact.ArtSign[:len(d.Fact.ArtSign)-1] }},
		{"art_sign not ±1", func(d *BasisData) { d.Fact.ArtSign[0] = 2 }},
		{"eta pivot/value mismatch", func(d *BasisData) {
			d.Fact.Lower.PVal = append(d.Fact.Lower.PVal, 1)
		}},
		{"eta offsets wrong length", func(d *BasisData) {
			d.Fact.Lower.Start = append(d.Fact.Lower.Start, 0)
		}},
		{"eta pivot row out of range", func(d *BasisData) {
			if len(d.Fact.Lower.PRow) == 0 {
				t.Skip("empty lower eta file")
			}
			d.Fact.Lower.PRow[0] = int32(d.Fact.M)
		}},
		{"eta zero pivot", func(d *BasisData) {
			if len(d.Fact.Lower.PVal) == 0 {
				t.Skip("empty lower eta file")
			}
			d.Fact.Lower.PVal[0] = 0
		}},
		{"eta arena row out of range", func(d *BasisData) {
			if len(d.Fact.Lower.Idx) == 0 {
				t.Skip("empty lower eta arena")
			}
			d.Fact.Lower.Idx[0] = -1
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			d := roundTrip(t, good) // deep copy via JSON
			tc.corrupt(d)
			if _, err := RestoreBasis(p, d); err == nil {
				t.Fatalf("restore accepted corrupt data (%s)", tc.name)
			}
		})
	}

	if _, err := RestoreBasis(nil, good); err == nil {
		t.Fatal("restore accepted nil problem")
	}
	if _, err := RestoreBasis(p, nil); err == nil {
		t.Fatal("restore accepted nil data")
	}
	if (*Basis)(nil).Export() != nil {
		t.Fatal("nil basis exported non-nil")
	}
	if (*Factorization)(nil).Export() != nil {
		t.Fatal("nil factorization exported non-nil")
	}

	// A factorization-free payload restores to a status-only warm start.
	statusOnly := roundTrip(t, good)
	statusOnly.Fact = nil
	b, err := RestoreBasis(p, statusOnly)
	if err != nil {
		t.Fatal(err)
	}
	if b.Fact != nil {
		t.Fatal("status-only restore grew a factorization")
	}
	warm, err := p.SolveOpts(Options{WarmStart: b})
	if err != nil || warm.Status != Optimal {
		t.Fatalf("status-only warm start: %v %v", warm.Status, err)
	}
}
