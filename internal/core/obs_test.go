package core

import (
	"bytes"
	"testing"

	"repro/internal/gen"
	"repro/internal/obs"
)

// TestSolveFeedsObserver locks the monolithic pipeline's observability
// wiring: one Solve feeds the solver counters exactly once, every stage run
// lands in the per-stage histogram/counter pair, and the trace contains one
// span per stage run with the simplex events attached under lp-solve.
func TestSolveFeedsObserver(t *testing.T) {
	in := gen.Uniform(gen.DefaultUniform(2, 8, 20), 3)
	reg := obs.NewRegistry()
	obs.Canonical(reg)
	var buf bytes.Buffer
	opts := DefaultOptions(1)
	opts.Obs = &obs.Observer{Reg: reg, Tr: obs.NewTracer(&buf)}
	res, err := Solve(in, opts)
	if err != nil {
		t.Fatal(err)
	}

	if got := reg.Counter(obs.MSolvesTotal).Value(); got != 1 {
		t.Fatalf("solves_total = %v, want 1", got)
	}
	if got := reg.Counter(obs.MLPPivots).Value(); got != float64(res.LPPivots) {
		t.Fatalf("lp pivots counter %v != result %d", got, res.LPPivots)
	}
	if got := reg.Counter(obs.MLPRefactorizations).Value(); got != float64(res.LPStats.Refactorizations) {
		t.Fatalf("refactorizations counter %v != result %d", got, res.LPStats.Refactorizations)
	}
	if got := reg.Counter(obs.MLPFTUpdates).Value(); got != float64(res.LPStats.FTUpdates) {
		t.Fatalf("FT updates counter %v != result %d", got, res.LPStats.FTUpdates)
	}
	for _, st := range res.Stages {
		if got := reg.Counter(obs.MStageRuns, obs.L("stage", st.Name)).Value(); int(got) != st.Runs {
			t.Fatalf("stage %s: runs counter %v != result %d", st.Name, got, st.Runs)
		}
		if got := reg.Histogram(obs.MStageWall, nil, obs.L("stage", st.Name)).Count(); int(got) != st.Runs {
			t.Fatalf("stage %s: wall histogram count %v != result %d", st.Name, got, st.Runs)
		}
	}

	recs, err := obs.ReadTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	spans := map[string]int{}
	events := 0
	for _, r := range recs {
		spans[r.Name]++
		if r.Name == "lp-solve" {
			events += len(r.Events)
		}
	}
	for _, st := range res.Stages {
		if st.Runs > 0 && spans[st.Name] != st.Runs {
			t.Fatalf("stage %s: %d spans, want %d", st.Name, spans[st.Name], st.Runs)
		}
	}
	st := res.LPStats
	if want := st.Refactorizations + st.FTUpdates + st.Replacements + st.WarmFallbacks + st.Repairs; events != want {
		t.Fatalf("lp-solve spans carry %d simplex events, want %d", events, want)
	}
}

// TestShardedSolveObserverNoDoubleCount locks the sharded path's feeding
// rule: the per-shard sub-solves trace their stages but must NOT feed the
// metrics registry (they run under TraceOnly observers), so a sharded Solve
// still counts as one solve, one shard-solve stage run, and zero top-level
// lp-solve stage runs — while the trace shows every shard's pipeline nested
// under its shard span.
func TestShardedSolveObserverNoDoubleCount(t *testing.T) {
	in := gen.Clustered(gen.DefaultClustered(2, 6, 2, 10), 7)
	reg := obs.NewRegistry()
	var buf bytes.Buffer
	opts := DefaultOptions(1)
	opts.Shards = 3
	opts.Obs = &obs.Observer{Reg: reg, Tr: obs.NewTracer(&buf)}
	res, err := Solve(in, opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.ShardInfo == nil || res.ShardInfo.Fallback {
		t.Fatalf("expected a non-fallback sharded solve (info=%+v)", res.ShardInfo)
	}

	if got := reg.Counter(obs.MSolvesTotal).Value(); got != 1 {
		t.Fatalf("solves_total = %v, want 1 (per-shard solves must not count)", got)
	}
	if got := reg.Counter(obs.MStageRuns, obs.L("stage", "lp-solve")).Value(); got != 0 {
		t.Fatalf("per-shard lp-solve stages fed the registry %v times, want 0", got)
	}
	if got := reg.Counter(obs.MStageRuns, obs.L("stage", "shard-solve")).Value(); got != 1 {
		t.Fatalf("shard-solve stage runs = %v, want 1", got)
	}
	if got := reg.Counter(obs.MLPPivots).Value(); got != float64(res.LPPivots) {
		t.Fatalf("lp pivots counter %v != aggregated result %d", got, res.LPPivots)
	}

	recs, err := obs.ReadTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	byID := map[uint64]obs.SpanRecord{}
	for _, r := range recs {
		byID[r.ID] = r
	}
	shardSpans, lpUnderShard := 0, 0
	for _, r := range recs {
		switch r.Name {
		case "shard":
			shardSpans++
		case "lp-solve":
			// Walk up: every lp-solve span must sit under a shard span.
			for p := r.Parent; p != 0; {
				pr, ok := byID[p]
				if !ok {
					break
				}
				if pr.Name == "shard" {
					lpUnderShard++
					break
				}
				p = pr.Parent
			}
		}
	}
	if shardSpans != 3 {
		t.Fatalf("%d shard spans, want 3", shardSpans)
	}
	if lpUnderShard < 3 {
		t.Fatalf("only %d lp-solve spans nested under shard spans, want >= 3", lpUnderShard)
	}
}
