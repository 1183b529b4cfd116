package agg

// Locks for State serialization: a membership exported to JSON and restored
// against the same (or churned-and-restored) true instance must rebuild the
// exact State — same unit order, same aggregate plane cell-for-cell — and
// invalid partitions must be refused.

import (
	"encoding/json"
	"testing"

	"repro/internal/netmodel"
	"repro/internal/stats"
)

func jsonTrip(t *testing.T, d *StateData) *StateData {
	t.Helper()
	buf, err := json.Marshal(d)
	if err != nil {
		t.Fatal(err)
	}
	var out StateData
	if err := json.Unmarshal(buf, &out); err != nil {
		t.Fatal(err)
	}
	return &out
}

// TestStateSerializeRoundTrip: export → JSON → restore reproduces the
// original State exactly, including after churn has moved weight around —
// the restore path must re-summarize against the instance as it stands NOW,
// not as it stood at Build time.
func TestStateSerializeRoundTrip(t *testing.T) {
	in := clustered(t, 2, 21)
	st, err := Build(in, Config{})
	if err != nil {
		t.Fatal(err)
	}

	// Churn a few epochs so the summaries have drifted from their Build
	// values before the snapshot is taken.
	rng := stats.NewRNG(99)
	for round := 0; round < 3; round++ {
		d := netmodel.Delta{}
		for j := 0; j < in.NumSinks; j++ {
			if rng.Bernoulli(0.3) {
				v := 0.0
				if rng.Bernoulli(0.7) {
					v = rng.Range(0.5, 0.95)
				}
				d.SetThreshold = append(d.SetThreshold, netmodel.SinkValue{Sink: j, Value: v})
			}
		}
		if err := d.Validate(in); err != nil {
			t.Fatal(err)
		}
		dirty, err := d.Apply(in)
		if err != nil {
			t.Fatal(err)
		}
		st.Sync(in, dirty)
	}

	restored, err := Restore(in, jsonTrip(t, st.Export()))
	if err != nil {
		t.Fatal(err)
	}
	if restored.Units() != st.Units() || restored.Groups() != st.Groups() {
		t.Fatalf("restored shape (%d,%d) != original (%d,%d)",
			restored.Groups(), restored.Units(), st.Groups(), st.Units())
	}
	for j := 0; j < in.NumSinks; j++ {
		if restored.UnitOf(j) != st.UnitOf(j) {
			t.Fatalf("unit %d folds to %d restored vs %d original", j, restored.UnitOf(j), st.UnitOf(j))
		}
	}
	sameAggInstance(t, "restore", restored.Agg, st.Agg)
	for au := range restored.scale {
		if restored.scale[au] != st.scale[au] {
			t.Fatalf("scale[%d] %g restored vs %g original", au, restored.scale[au], st.scale[au])
		}
	}
	if restored.Agg.Commodity == nil {
		t.Fatal("restored aggregate lost its commodity map")
	}
	for au := range restored.Agg.Commodity {
		if restored.Agg.Commodity[au] != st.Agg.Commodity[au] {
			t.Fatalf("aggregate %d stream %d restored vs %d original",
				au, restored.Agg.Commodity[au], st.Agg.Commodity[au])
		}
	}
}

// TestStateRestoreRejects: partitions that don't cover the viewers exactly
// once, or that merge viewers with different slot sets, must be refused.
func TestStateRestoreRejects(t *testing.T) {
	in := clustered(t, 2, 5)
	st, err := Build(in, Config{})
	if err != nil {
		t.Fatal(err)
	}
	good := st.Export()

	cases := []struct {
		name    string
		corrupt func(d *StateData)
	}{
		{"empty aggregate", func(d *StateData) { d.Members = append(d.Members, []int{}) }},
		{"viewer out of range", func(d *StateData) { d.Members[0][0] = in.NumViewers() }},
		{"negative viewer", func(d *StateData) { d.Members[0][0] = -1 }},
		{"duplicated viewer", func(d *StateData) { d.Members[0] = append(d.Members[0], d.Members[0][0]) }},
		{"missing viewer", func(d *StateData) {
			d.Members[0] = d.Members[0][:0]
			d.Members[0] = append(d.Members[0], d.Members[1][0])
			d.Members[1] = d.Members[1][1:]
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			d := jsonTrip(t, good)
			tc.corrupt(d)
			if _, err := Restore(in, d); err == nil {
				t.Fatalf("restore accepted invalid partition (%s)", tc.name)
			}
		})
	}

	// Mixed slot sets: single-stream and two-stream builds partition
	// different viewer sets, so a two-stream membership restored against a
	// one-stream instance must fail one way or another.
	in1 := clustered(t, 1, 5)
	if _, err := Restore(in1, good); err == nil {
		t.Fatal("restore accepted a membership from a different instance shape")
	}
	if _, err := Restore(st.Agg, good); err == nil {
		t.Fatal("restore accepted an already-weighted instance")
	}
	if _, err := Restore(in, nil); err == nil {
		t.Fatal("restore accepted nil data")
	}
	if (*State)(nil).Export() != nil {
		t.Fatal("nil state exported non-nil")
	}
}

// TestRestoreThenSyncMatchesBuild: a restored State must carry the member
// cost sums of the instance it was restored against, so the Syncs after a
// restore — weight flips that rescale from the cached sums, and member-arc
// reprices — still reproduce a fresh Build cell-exactly.
func TestRestoreThenSyncMatchesBuild(t *testing.T) {
	in := clustered(t, 2, 33)
	cfg := Config{GroupOf: anchorGroups(in)}
	st, err := Build(in, cfg)
	if err != nil {
		t.Fatal(err)
	}
	rng := stats.NewRNG(7)
	for round := 0; round < 6; round++ {
		d := netmodel.Delta{}
		for j := 0; j < in.NumSinks; j++ {
			if rng.Bernoulli(0.3) {
				v := 0.0
				if rng.Bernoulli(0.6) {
					v = rng.Range(0.5, 0.95)
				}
				d.SetThreshold = append(d.SetThreshold, netmodel.SinkValue{Sink: j, Value: v})
			}
			if rng.Bernoulli(0.1) {
				d.ScaleRefSinkCost = append(d.ScaleRefSinkCost,
					netmodel.ArcValue{A: rng.Intn(in.NumReflectors), B: j, Value: rng.Range(0.5, 1.5)})
			}
		}
		dirty, err := d.Apply(in)
		if err != nil {
			t.Fatal(err)
		}
		if round == 2 {
			// Restore mid-timeline, as a daemon resuming from a snapshot.
			if st, err = Restore(in, jsonTrip(t, st.Export())); err != nil {
				t.Fatal(err)
			}
			continue
		}
		st.Sync(in, dirty)
		fresh, err := Build(in, cfg)
		if err != nil {
			t.Fatal(err)
		}
		sameAggInstance(t, "restore then sync", st.Agg, fresh.Agg)
	}
}
