package netmodel_test

import (
	"bytes"
	"encoding/json"
	"testing"

	"repro/internal/gen"
	"repro/internal/netmodel"
)

// multiInstance returns a small native multi-stream instance: 12 viewers ×
// 2 streams = 24 demand units on the clustered topology.
func multiInstance(t testing.TB) *netmodel.Instance {
	t.Helper()
	cc := gen.DefaultClustered(3, 2, 2, 6)
	cc.StreamsPerSink = 2
	in := gen.Clustered(cc, 7)
	if err := in.Validate(); err != nil {
		t.Fatalf("generated multi-stream instance invalid: %v", err)
	}
	if !in.MultiStream() || in.NumSinks != 24 || in.NumViewers() != 12 {
		t.Fatalf("unexpected shape: units=%d viewers=%d", in.NumSinks, in.NumViewers())
	}
	return in
}

func TestSinkOfValidation(t *testing.T) {
	base := multiInstance(t)
	cases := []struct {
		name   string
		mutate func(*netmodel.Instance)
	}{
		{"wrong length", func(in *netmodel.Instance) { in.SinkOf = in.SinkOf[:len(in.SinkOf)-1] }},
		{"not starting at 0", func(in *netmodel.Instance) {
			for j := range in.SinkOf {
				in.SinkOf[j]++
			}
		}},
		{"gap in viewer ids", func(in *netmodel.Instance) {
			for j := range in.SinkOf {
				if in.SinkOf[j] >= 5 {
					in.SinkOf[j] += 2
				}
			}
		}},
		{"non-contiguous group", func(in *netmodel.Instance) { in.SinkOf[1], in.SinkOf[2] = in.SinkOf[2], in.SinkOf[1] }},
		{"duplicate stream in a group", func(in *netmodel.Instance) { in.Commodity[1] = in.Commodity[0] }},
		{"differing edge caps within a group", func(in *netmodel.Instance) {
			in.EdgeCap = make([][]float64, in.NumReflectors)
			for i := range in.EdgeCap {
				in.EdgeCap[i] = make([]float64, in.NumSinks)
				for j := range in.EdgeCap[i] {
					in.EdgeCap[i][j] = 2
				}
			}
			in.EdgeCap[0][1] = 3 // unit 1 shares viewer 0 with unit 0
		}},
	}
	for _, tc := range cases {
		in := base.Clone()
		tc.mutate(in)
		if err := in.Validate(); err == nil {
			t.Errorf("%s: Validate accepted a broken grouping", tc.name)
		}
	}
}

func TestSplitStreamsIsTheWLOG(t *testing.T) {
	in := multiInstance(t)
	split := in.SplitStreams()
	if split.MultiStream() {
		t.Fatal("split instance still grouped")
	}
	if err := split.Validate(); err != nil {
		t.Fatalf("split instance invalid: %v", err)
	}
	if split.NumViewers() != in.NumSinks {
		t.Fatalf("split has %d viewers, want one per unit (%d)", split.NumViewers(), in.NumSinks)
	}
	// Unit indices — and every per-unit array — are untouched, so native
	// and copy-split solutions are comparable cell for cell.
	for j := 0; j < in.NumSinks; j++ {
		if split.Commodity[j] != in.Commodity[j] || split.Threshold[j] != in.Threshold[j] {
			t.Fatalf("split changed unit %d", j)
		}
	}
	// And the original is untouched (SplitStreams clones).
	if !in.MultiStream() {
		t.Fatal("SplitStreams mutated its receiver")
	}
}

// TestViewerChurnFractional is the acceptance-criterion lock: a one-stream
// switch on a 3-stream sink reports 1/3 of a viewer, not a full one.
func TestViewerChurnFractional(t *testing.T) {
	in := netmodel.NewZeroInstance(3, 2, 3)
	in.SinkOf = []int{0, 0, 0}
	in.Commodity = []int{0, 1, 2}
	for j := range in.Threshold {
		in.Threshold[j] = 0.9
	}
	for i := range in.Fanout {
		in.Fanout[i] = 10
	}
	if err := in.Validate(); err != nil {
		t.Fatal(err)
	}
	serveAll := func(i int) *netmodel.Design {
		d := netmodel.NewDesign(in)
		for j := 0; j < 3; j++ {
			d.Serve[i][j] = true
		}
		d.Normalize(in)
		return d
	}
	prev := serveAll(0)
	next := serveAll(0)
	next.Serve[0][2], next.Serve[1][2] = false, true // one stream re-pulled
	next.Normalize(in)

	c := netmodel.DesignChurn(in, prev, next)
	if c.Streams != 1 {
		t.Fatalf("stream churn = %d, want 1", c.Streams)
	}
	if c.Viewers != 1.0/3.0 {
		t.Fatalf("viewer churn = %g, want 1/3", c.Viewers)
	}
	// The copy-split view (grouping forgotten) charges a full viewer.
	split := in.SplitStreams()
	if sv := netmodel.DesignChurn(split, prev, next).Viewers; sv != 1 {
		t.Fatalf("copy-split viewer churn = %g, want 1", sv)
	}
	// A full re-pull of every stream is a whole viewer either way.
	c = netmodel.DesignChurn(in, prev, serveAll(1))
	if c.Viewers != 1 || c.Streams != 3 {
		t.Fatalf("full switch: viewers=%g streams=%d, want 1 and 3", c.Viewers, c.Streams)
	}
	// No change, no churn.
	if c := netmodel.DesignChurn(in, prev, prev.Clone()); c != (netmodel.Churn{}) {
		t.Fatalf("identical designs churned: %+v", c)
	}
}

func TestSetStreamDelta(t *testing.T) {
	in := multiInstance(t)
	v := 3
	lo, hi := in.ViewerRange(v)
	if hi-lo != 2 {
		t.Fatalf("viewer %d has %d units, want 2", v, hi-lo)
	}
	k := in.Commodity[lo+1]
	d := netmodel.Delta{
		Note:      "unsubscribe then resubscribe",
		SetStream: []netmodel.StreamValue{{Sink: v, Stream: k, Value: 0}},
	}
	ds, err := d.Apply(in)
	if err != nil {
		t.Fatal(err)
	}
	if in.Threshold[lo+1] != 0 {
		t.Fatalf("unsubscribe did not zero the slot threshold")
	}
	if len(ds.SinkDemand) != 1 || ds.SinkDemand[0] != lo+1 {
		t.Fatalf("dirty set %v, want the unit %d", ds.SinkDemand, lo+1)
	}
	d = netmodel.Delta{SetStream: []netmodel.StreamValue{{Sink: v, Stream: k, Value: 0.95}}}
	if _, err := d.Apply(in); err != nil {
		t.Fatal(err)
	}
	if in.Threshold[lo+1] != 0.95 {
		t.Fatalf("subscribe did not set the slot threshold")
	}

	// A viewer can only toggle streams it was built with.
	var missing int
	for k := 0; k < in.NumSources; k++ {
		if in.FindUnit(v, k) < 0 {
			missing = k
			break
		}
	}
	bad := netmodel.Delta{SetStream: []netmodel.StreamValue{{Sink: v, Stream: missing, Value: 0.9}}}
	snapshot := in.Clone()
	if _, err := bad.Apply(in); err == nil {
		t.Fatal("Apply accepted a stream the viewer has no slot for")
	}
	a, _ := json.Marshal(snapshot)
	b, _ := json.Marshal(in)
	if !bytes.Equal(a, b) {
		t.Fatal("rejected delta mutated the instance")
	}
}

func TestMultiStreamJSONRoundTrip(t *testing.T) {
	in := multiInstance(t)
	var buf bytes.Buffer
	if err := in.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := netmodel.ReadJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !back.MultiStream() || back.NumViewers() != in.NumViewers() {
		t.Fatalf("grouping lost in round trip: viewers=%d want %d", back.NumViewers(), in.NumViewers())
	}
	for j, g := range in.SinkOf {
		if back.SinkOf[j] != g {
			t.Fatalf("SinkOf[%d] = %d after round trip, want %d", j, back.SinkOf[j], g)
		}
	}
}

func TestActiveViewers(t *testing.T) {
	in := multiInstance(t)
	if got := in.ActiveViewers(); got != 12 {
		t.Fatalf("ActiveViewers = %d, want 12", got)
	}
	lo, hi := in.ViewerRange(0)
	for j := lo; j < hi; j++ {
		in.Threshold[j] = 0 // viewer 0 fully leaves
	}
	lo, _ = in.ViewerRange(1)
	in.Threshold[lo] = 0 // viewer 1 drops one of two streams: still active
	if got := in.ActiveViewers(); got != 11 {
		t.Fatalf("ActiveViewers = %d after one full leave, want 11", got)
	}
}
