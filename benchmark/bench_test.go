package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/obs"
)

// TestMetricNamesMatchBenchmarkJSON keeps the harness and BENCHMARK.json in
// step: same workloads, same metric names and units.
func TestMetricNamesMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj struct {
		Workloads []struct{ Name string }       `json:"workloads"`
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &bj); err != nil {
		t.Fatal(err)
	}
	var workloads []string
	for _, w := range bj.Workloads {
		workloads = append(workloads, w.Name)
	}
	if got := strings.Join(workloads, ","); got != "library,fleet,overlayd" {
		t.Errorf("BENCHMARK.json workloads %s", got)
	}
	check := func(kind string, want []spec, got []struct{ Name, Unit string }) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the harness %d", kind, len(got), len(want))
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s %d: BENCHMARK.json %s [%s], harness %s [%s]",
					kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", endToEnd, bj.EndToEnd)
	check("per_layer", perLayer, bj.PerLayer)
}

// TestQuickWorkloads runs every workload at quick sizes, untraced and
// traced, the way the driver does, and checks the result line: correct, no
// failed operation, every metric present, end-to-end metrics nonzero.
// Batch workloads run twice per seed, so the second run checks that the
// deterministic outputs repeat.
func TestQuickWorkloads(t *testing.T) {
	if testing.Short() {
		t.Skip("builds overlayd and runs every workload")
	}
	state := t.TempDir()
	bin := filepath.Join(state, "overlayd")
	build := exec.Command("go", "build", "-o", bin, "./cmd/overlayd")
	build.Dir = ".."
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("building overlayd: %v\n%s", err, out)
	}
	for _, workload := range []string{"library", "fleet", "overlayd"} {
		for _, traced := range []bool{false, true} {
			runs := 1
			if workload != "overlayd" {
				runs = 2
			}
			for i := 0; i < runs; i++ {
				rc := runConfig{workload: workload, seed: 7, seconds: 1, traced: traced, quick: true,
					stateDir: state, overlayd: bin}
				out, err := runWorkload(context.Background(), rc)
				if err != nil {
					t.Fatalf("%s traced=%t: %v", workload, traced, err)
				}
				if err := checkDigest(rc, out); err != nil {
					t.Errorf("%s traced=%t run %d: %v", workload, traced, i+1, err)
				}
				if out.metrics["peak_rss_mb"] == 0 && !traced {
					out.metrics["peak_rss_mb"] = peakRSSMB("self")
				}
				var buf bytes.Buffer
				code := report(&buf, rc, out)
				lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
				var res struct {
					Correct           bool
					Attempted, Failed int
					Metrics           map[string]struct {
						Value float64
						Unit  string
					}
				}
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
					t.Fatalf("%s traced=%t: last line: %v\n%s", workload, traced, err, buf.String())
				}
				if code != 0 || !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Errorf("%s traced=%t: exit %d, correct %t, %d/%d failed\n%s",
						workload, traced, code, res.Correct, res.Failed, res.Attempted, buf.String())
				}
				specs := endToEnd
				if traced {
					specs = perLayer
				}
				if len(res.Metrics) != len(specs) {
					t.Errorf("%s traced=%t: %d metrics, want %d", workload, traced, len(res.Metrics), len(specs))
				}
				for _, s := range specs {
					v, ok := res.Metrics[s.name]
					if !ok || v.Unit != s.unit || math.IsNaN(v.Value) || (!traced && v.Value <= 0) {
						t.Errorf("%s traced=%t: metric %s = %+v", workload, traced, s.name, v)
					}
				}
			}
		}
	}
	liveMu.Lock()
	defer liveMu.Unlock()
	if len(liveSet) != 0 {
		t.Errorf("%d overlayd children still running", len(liveSet))
	}
}

func TestTail(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	// Ten samples (91..100) lie beyond the 90th value.
	if v, pct := tail(xs); v != 90 || pct != 90 {
		t.Errorf("tail of 1..100 = %v at p%v, want 90 at p90", v, pct)
	}
	if v, pct := tail(xs[:5]); v != 5 || pct != 100 {
		t.Errorf("tail of 1..5 = %v at p%v, want the maximum", v, pct)
	}
}

func TestAttributeSelfTime(t *testing.T) {
	// An epoch span of 100ns with two overlapping children covering 20..70,
	// and a set-up epoch that attribution skips.
	recs := []obs.SpanRecord{
		{ID: 1, Name: "epoch", StartNS: 0, DurNS: 100, Attrs: map[string]any{"epoch": 1.0}},
		{ID: 2, Parent: 1, Name: "lp-solve", StartNS: 20, DurNS: 40},
		{ID: 3, Parent: 1, Name: "shard", StartNS: 30, DurNS: 40, Attrs: map[string]any{"shard": 0.0}},
		{ID: 4, Name: "epoch", StartNS: 200, DurNS: 50, Attrs: map[string]any{"epoch": 0.0}},
		{ID: 5, Parent: 4, Name: "lp-solve", StartNS: 200, DurNS: 50},
	}
	st := attribute(recs)
	if st.self["epoch"] != 50 || st.wall["lp-solve"] != 40 || st.runs["lp-solve"] != 1 || st.shardBusy[0] != 40 {
		t.Errorf("attribution %+v", st)
	}
}
