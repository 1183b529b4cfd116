package lp

import (
	"fmt"
	"math"
)

// Serialization of the warm-start state. A Basis (column statuses) plus its
// persistent Factorization (the eta-file elimination form of B⁻¹) is
// everything a re-solve needs to resume pivoting where a previous solve left
// off — but a Factorization is an in-memory handle tied to the identity of
// the Problem it was snapshotted from, so it cannot cross a process
// boundary by itself. These data types carry the state through JSON (or any
// other codec): Export captures the numeric payload, and RestoreBasis binds
// it to a Problem the caller has rebuilt, re-establishing the identity the
// adoption contract needs.
//
// The soundness obligation moves to the caller: RestoreBasis(p, d) declares
// that p's constraint matrix is the one the factorization was built from.
// The overlayd snapshot path discharges it by rebuilding the Problem
// deterministically from the persisted instance (lpmodel.Build is a pure
// function of the instance, and the Patcher keeps the live Problem
// semantically identical to that fresh build — golden-locked), so the
// restored eta file inverts exactly the matrix it describes. Restore
// validates everything checkable locally — shapes, index ranges, eta-file
// structure, finite values — and the end-to-end feasibility audit of the
// next solve backstops the rest: a stale factorization fails the audit and
// degrades to a refactorized cold start rather than returning garbage.

// EtaFileData is the serializable form of one eta file (see etaFile): a
// sequence of Gauss–Jordan elimination columns stored as a pivot list plus
// an off-pivot arena.
type EtaFileData struct {
	PRow  []int32   `json:"prow,omitempty"`
	PVal  []float64 `json:"pval,omitempty"`
	Start []int32   `json:"start"`
	Idx   []int32   `json:"idx,omitempty"`
	Val   []float64 `json:"val,omitempty"`
}

// FactorizationData is the serializable payload of a Factorization: the
// basis-to-row assignment, the artificial-column signs, and the three eta
// files (lower/upper factors from the last refactorization, product-form
// updates since).
type FactorizationData struct {
	M       int         `json:"m"`
	Basis   []int       `json:"basis"`
	ArtSign []float64   `json:"art_sign"`
	Lower   EtaFileData `json:"lower"`
	Upper   EtaFileData `json:"upper"`
	Updates EtaFileData `json:"updates"`
}

// BasisData is the serializable form of a Basis, factorization included.
type BasisData struct {
	NumVars int                `json:"num_vars"`
	NumRows int                `json:"num_rows"`
	ColStat []int8             `json:"col_stat"`
	Fact    *FactorizationData `json:"fact,omitempty"`
}

func exportEta(e *etaFile) EtaFileData {
	return EtaFileData{
		PRow:  append([]int32(nil), e.prow...),
		PVal:  append([]float64(nil), e.pval...),
		Start: append([]int32(nil), e.start...),
		Idx:   append([]int32(nil), e.idx...),
		Val:   append([]float64(nil), e.val...),
	}
}

// Export captures the factorization's numeric payload for serialization.
// Returns nil for a nil handle.
func (f *Factorization) Export() *FactorizationData {
	if f == nil {
		return nil
	}
	return &FactorizationData{
		M:       f.m,
		Basis:   append([]int(nil), f.basis...),
		ArtSign: append([]float64(nil), f.artSign...),
		Lower:   exportEta(f.lower),
		Upper:   exportEta(f.upper),
		Updates: exportEta(f.updates),
	}
}

// Export captures the basis (statuses plus factorization payload) for
// serialization. Returns nil for a nil basis.
func (b *Basis) Export() *BasisData {
	if b == nil {
		return nil
	}
	return &BasisData{
		NumVars: b.NumVars,
		NumRows: b.NumRows,
		ColStat: append([]int8(nil), b.ColStat...),
		Fact:    b.Fact.Export(),
	}
}

// checkEta validates the structural invariants of a serialized eta file
// against row count m.
func checkEta(name string, d EtaFileData, m int) error {
	k := len(d.PRow)
	if len(d.PVal) != k {
		return fmt.Errorf("lp: %s eta file: %d pivots but %d pivot values", name, k, len(d.PVal))
	}
	if len(d.Start) != k+1 {
		return fmt.Errorf("lp: %s eta file: %d pivots need %d offsets, have %d", name, k, k+1, len(d.Start))
	}
	if d.Start[0] != 0 {
		return fmt.Errorf("lp: %s eta file: first arena offset %d, want 0", name, d.Start[0])
	}
	if len(d.Idx) != len(d.Val) {
		return fmt.Errorf("lp: %s eta file: %d arena indices vs %d values", name, len(d.Idx), len(d.Val))
	}
	for i := 0; i < k; i++ {
		if d.Start[i] > d.Start[i+1] {
			return fmt.Errorf("lp: %s eta file: arena offsets decrease at pivot %d", name, i)
		}
		if p := d.PRow[i]; p < 0 || int(p) >= m {
			return fmt.Errorf("lp: %s eta file: pivot row %d outside [0,%d)", name, p, m)
		}
		if v := d.PVal[i]; v == 0 || math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("lp: %s eta file: bad pivot value %g at %d", name, v, i)
		}
	}
	if int(d.Start[k]) != len(d.Idx) {
		return fmt.Errorf("lp: %s eta file: last arena offset %d, want %d", name, d.Start[k], len(d.Idx))
	}
	for q, r := range d.Idx {
		if r < 0 || int(r) >= m {
			return fmt.Errorf("lp: %s eta file: arena row %d outside [0,%d)", name, r, m)
		}
		if v := d.Val[q]; math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("lp: %s eta file: non-finite arena value at %d", name, q)
		}
	}
	return nil
}

func restoreEta(d EtaFileData) *etaFile {
	e := newEtaFile()
	e.prow = append([]int32(nil), d.PRow...)
	e.pval = append([]float64(nil), d.PVal...)
	if len(d.Start) > 0 {
		e.start = append(e.start[:0], d.Start...)
	}
	e.idx = append([]int32(nil), d.Idx...)
	e.val = append([]float64(nil), d.Val...)
	return e
}

// RestoreFactorization rebinds a serialized factorization to p, declaring
// that p's constraint matrix — as it stands now — is the matrix the eta
// files were built from (see the package comment on the caller's soundness
// obligation). All locally checkable invariants are validated; the returned
// handle adopts on the next warm start of p exactly like the in-memory one
// it was exported from, and later coefficient patches of p reach it
// through the usual patch-version stamps (basic columns they touch are
// replaced at install).
func RestoreFactorization(p *Problem, d *FactorizationData) (*Factorization, error) {
	if p == nil {
		return nil, fmt.Errorf("lp: restore factorization: nil problem")
	}
	if d == nil {
		return nil, fmt.Errorf("lp: restore factorization: nil data")
	}
	m := len(p.rows)
	if d.M != m {
		return nil, fmt.Errorf("lp: restore factorization: %d rows in data, problem has %d", d.M, m)
	}
	if len(d.Basis) != m {
		return nil, fmt.Errorf("lp: restore factorization: basis has %d entries, want %d", len(d.Basis), m)
	}
	ncols := p.n + 2*m
	for r, c := range d.Basis {
		if c < 0 || c >= ncols {
			return nil, fmt.Errorf("lp: restore factorization: basic column %d of row %d outside [0,%d)", c, r, ncols)
		}
	}
	if len(d.ArtSign) != m {
		return nil, fmt.Errorf("lp: restore factorization: art_sign has %d entries, want %d", len(d.ArtSign), m)
	}
	for r, s := range d.ArtSign {
		if s != 1 && s != -1 {
			return nil, fmt.Errorf("lp: restore factorization: art_sign[%d] = %g, want ±1", r, s)
		}
	}
	for _, chk := range []struct {
		name string
		d    EtaFileData
	}{{"lower", d.Lower}, {"upper", d.Upper}, {"updates", d.Updates}} {
		if err := checkEta(chk.name, chk.d, m); err != nil {
			return nil, err
		}
	}
	return &Factorization{
		m:       m,
		basis:   append([]int(nil), d.Basis...),
		artSign: append([]float64(nil), d.ArtSign...),
		lower:   restoreEta(d.Lower),
		upper:   restoreEta(d.Upper),
		updates: restoreEta(d.Updates),
		prob:    p,
		ver:     p.patchVer,
	}, nil
}

// RestoreBasis rebinds a serialized basis to p. The statuses must match p's
// shape; the factorization payload, when present, is rebound via
// RestoreFactorization (same soundness obligation). A data payload without
// a factorization restores to a status-only basis that refactorizes at
// install — still a warm start, just not a resumed one.
func RestoreBasis(p *Problem, d *BasisData) (*Basis, error) {
	if p == nil {
		return nil, fmt.Errorf("lp: restore basis: nil problem")
	}
	if d == nil {
		return nil, fmt.Errorf("lp: restore basis: nil data")
	}
	m := len(p.rows)
	if d.NumVars != p.n || d.NumRows != m {
		return nil, fmt.Errorf("lp: restore basis: shape (%d vars, %d rows) vs problem (%d, %d)",
			d.NumVars, d.NumRows, p.n, m)
	}
	if want := p.n + 2*m; len(d.ColStat) != want {
		return nil, fmt.Errorf("lp: restore basis: %d column statuses, want %d", len(d.ColStat), want)
	}
	for j, st := range d.ColStat {
		if st != BasisAtLower && st != BasisAtUpper && st != BasisBasic {
			return nil, fmt.Errorf("lp: restore basis: bad status %d at column %d", st, j)
		}
	}
	b := &Basis{
		NumVars: d.NumVars,
		NumRows: d.NumRows,
		ColStat: append([]int8(nil), d.ColStat...),
	}
	if d.Fact != nil {
		f, err := RestoreFactorization(p, d.Fact)
		if err != nil {
			return nil, err
		}
		b.Fact = f
	}
	return b, nil
}
