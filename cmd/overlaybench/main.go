// Command overlaybench runs the experiment suite of EXPERIMENTS.md — every
// table and figure validating the paper's claims — and prints the tables.
// It can additionally profile the solve pipeline stage by stage and emit
// the numbers as JSON, so successive PRs can track the performance
// trajectory in BENCH_*.json files.
//
// Usage:
//
//	overlaybench                # full suite (minutes)
//	overlaybench -quick         # reduced sizes (seconds)
//	overlaybench -only T2,T5    # subset by experiment ID
//	overlaybench -trials 20     # more seeds per cell
//	overlaybench -stages        # per-stage timing/allocation table
//	overlaybench -json out.json # machine-readable stage timings
//
// The sharded-solve acceptance sweep (S-series extended through 2000 sinks)
// writes BENCH_shard.json:
//
//	overlaybench -shardjson BENCH_shard.json [-monodeadline 60s]
//
// The incremental-LP-rebuild sweep (L5's replay across the scenario library
// at the 50 epochs of the flash-crowd acceptance workload) writes
// BENCH_incr.json:
//
//	overlaybench -incrjson BENCH_incr.json
//
// The multi-stream accounting sweep (the L6 workload: native viewer churn
// vs the paper's copy-split WLOG) writes BENCH_multistream.json, and the CI
// artifact mode regenerates every sweep into one directory:
//
//	overlaybench -multijson BENCH_multistream.json
//	overlaybench -quick -benchjson bench-artifacts/
//
// Each size solves with 8 shards, then attempts the monolithic reference in
// a subprocess killed at -monodeadline: at 2000 sinks the monolithic
// simplex does not terminate, so the record shows the deadline forfeit
// (with the speedup floor it proves) instead of a number nobody can
// reproduce.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/agg"
	"repro/internal/core"
	"repro/internal/exp"
	"repro/internal/gen"
	"repro/internal/netmodel"
	"repro/internal/obs"
)

func main() {
	var (
		quick     = flag.Bool("quick", false, "reduced sizes/trials")
		only      = flag.String("only", "", "comma-separated experiment IDs (default all)")
		trials    = flag.Int("trials", 0, "override trials per cell")
		stages    = flag.Bool("stages", false, "print per-stage pipeline instrumentation")
		jsonPath  = flag.String("json", "", "write per-stage timings as JSON to this file")
		shardJSON = flag.String("shardjson", "", "run the sharded-solve scaling sweep and write BENCH_shard.json here")
		monoDL    = flag.Duration("monodeadline", 60*time.Second, "wall budget per monolithic reference solve in the -shardjson sweep")
		monoProbe = flag.String("mono-probe", "", "internal: solve this instance monolithically and print JSON (subprocess mode)")
		incrJSON  = flag.String("incrjson", "", "run the incremental-LP-rebuild sweep and write BENCH_incr.json here")
		multiJSON = flag.String("multijson", "", "run the multi-stream accounting sweep (L6 workload) and write BENCH_multistream.json here")
		aggJSON   = flag.String("aggjson", "", "run the hierarchical-aggregation scaling sweep (10^4–10^6 viewers folded into weighted super-sinks) and write BENCH_agg.json here")
		aggMax    = flag.Int("aggmax", 100_000, "viewer ceiling for the -aggjson sweep (set 1000000 for the full gated sweep)")
		benchDir  = flag.String("benchjson", "", "write every BENCH_*.json sweep (stages, incremental, multi-stream, aggregation) into this directory — the CI artifact mode; honors -quick")
	)
	flag.Parse()
	// Flag validation: malformed numeric requests are usage errors (exit 2),
	// caught before any sweep starts burning minutes.
	if *trials < 0 {
		usage("-trials must be ≥ 0, got %d", *trials)
	}
	if *monoDL <= 0 {
		usage("-monodeadline must be positive, got %v", *monoDL)
	}
	if *aggMax <= 0 {
		usage("-aggmax must be positive, got %d", *aggMax)
	}

	if *monoProbe != "" {
		runMonoProbe(*monoProbe)
		return
	}
	if *shardJSON != "" {
		if err := shardSweep(*shardJSON, *monoDL, *quick); err != nil {
			fmt.Fprintf(os.Stderr, "overlaybench: %v\n", err)
			os.Exit(1)
		}
		return
	}
	if *incrJSON != "" {
		if err := incrSweep(*incrJSON, *quick); err != nil {
			fmt.Fprintf(os.Stderr, "overlaybench: %v\n", err)
			os.Exit(1)
		}
		return
	}
	if *multiJSON != "" {
		if err := multiSweep(*multiJSON, *quick); err != nil {
			fmt.Fprintf(os.Stderr, "overlaybench: %v\n", err)
			os.Exit(1)
		}
		return
	}
	if *aggJSON != "" {
		if err := aggSweep(*aggJSON, *quick, *aggMax); err != nil {
			fmt.Fprintf(os.Stderr, "overlaybench: %v\n", err)
			os.Exit(1)
		}
		return
	}
	if *benchDir != "" {
		if err := benchArtifacts(*benchDir, *quick); err != nil {
			fmt.Fprintf(os.Stderr, "overlaybench: %v\n", err)
			os.Exit(1)
		}
		return
	}

	cfg := exp.DefaultConfig()
	if *quick {
		cfg = exp.QuickConfig()
	}
	if *trials > 0 {
		cfg.Trials = *trials
	}
	want := map[string]bool{}
	if *only != "" {
		for _, id := range strings.Split(*only, ",") {
			want[strings.TrimSpace(strings.ToUpper(id))] = true
		}
	}
	stagesOnly := (*stages || *jsonPath != "") && *only == ""
	total := time.Now()
	if !stagesOnly {
		for _, e := range exp.All() {
			if len(want) > 0 && !want[e.ID] {
				continue
			}
			start := time.Now()
			tb := e.Run(cfg)
			fmt.Println(tb.String())
			fmt.Printf("[%s completed in %v]\n\n", e.ID, time.Since(start).Round(time.Millisecond))
		}
		fmt.Printf("suite finished in %v\n", time.Since(total).Round(time.Millisecond))
	}

	if *stages || *jsonPath != "" {
		if err := reportStages(*stages, *jsonPath); err != nil {
			fmt.Fprintf(os.Stderr, "overlaybench: %v\n", err)
			os.Exit(1)
		}
	}
}

// stageReport is the JSON schema of -json (one entry per pipeline stage of
// a representative solve, plus headline solver counters).
type stageReport struct {
	Instance     string           `json:"instance"`
	LPVars       int              `json:"lp_vars"`
	LPRows       int              `json:"lp_rows"`
	LPPivots     int              `json:"lp_pivots"`
	TotalWallNS  int64            `json:"total_wall_ns"`
	Stages       []stageReportRow `json:"stages"`
	GeneratedRFC string           `json:"generated"`
}

type stageReportRow struct {
	Name       string `json:"name"`
	WallNS     int64  `json:"wall_ns"`
	AllocBytes uint64 `json:"alloc_bytes"`
	Allocs     uint64 `json:"allocs"`
	Runs       int    `json:"runs"`
}

// reportStages solves the T7 benchmark instance (the scalability
// acceptance workload) once and reports its per-stage instrumentation.
func reportStages(print bool, jsonPath string) error {
	const instance = "uniform-2x8x20-seed3"
	in := gen.Uniform(gen.DefaultUniform(2, 8, 20), 3)
	opts := core.DefaultOptions(1)
	opts.StageMemStats = true
	start := time.Now()
	res, err := core.Solve(in, opts)
	if err != nil {
		return err
	}
	wall := time.Since(start)

	if print {
		fmt.Printf("pipeline stages (%s):\n", instance)
		fmt.Printf("  %-12s %12s %12s %10s %6s\n", "stage", "wall", "alloc", "allocs", "runs")
		for _, s := range res.Stages {
			fmt.Printf("  %-12s %12s %12d %10d %6d\n",
				s.Name, s.Wall.Round(time.Microsecond), s.AllocBytes, s.Allocs, s.Runs)
		}
		fmt.Printf("  %-12s %12s   (LP %d vars × %d rows, %d pivots)\n",
			"total", wall.Round(time.Microsecond),
			res.LPVars, res.LPRows, res.LPPivots)
	}
	if jsonPath != "" {
		rep := stageReport{
			Instance:     instance,
			LPVars:       res.LPVars,
			LPRows:       res.LPRows,
			LPPivots:     res.LPPivots,
			TotalWallNS:  wall.Nanoseconds(),
			GeneratedRFC: time.Now().UTC().Format(time.RFC3339),
		}
		for _, s := range res.Stages {
			rep.Stages = append(rep.Stages, stageReportRow{
				Name: s.Name, WallNS: s.Wall.Nanoseconds(),
				AllocBytes: s.AllocBytes, Allocs: s.Allocs, Runs: s.Runs,
			})
		}
		return writeBench(jsonPath, "stage timings", rep)
	}
	return nil
}

// rowsBench is the schema of BENCH_incr.json and BENCH_multistream.json:
// the workload, one exp row per scenario, and the generation time.
type rowsBench[R any] struct {
	Workload  string `json:"workload"`
	Rows      []R    `json:"rows"`
	Generated string `json:"generated"`
}

// sweepEpochs is the timeline length of the -incrjson and -multijson
// sweeps: the 50 epochs of the flash-crowd acceptance workload, 16 under
// -quick. Both sweeps make their scenarios at seed 1.
func sweepEpochs(quick bool) int {
	if quick {
		return 16
	}
	return 50
}

// incrSweep measures the incremental LP rebuild against a per-epoch full
// build on every library scenario's delta schedule (exp.L5Rows), headlined
// by the 50-epoch flash crowd the bench_test acceptance asserts ≥3x on.
func incrSweep(outPath string, quick bool) error {
	rows, err := exp.L5Rows(1, sweepEpochs(quick))
	if err != nil {
		return err
	}
	for _, r := range rows {
		fmt.Printf("%s: rebuild %v vs patch %v (%.1fx), %d patches, %d builds, identical=%v\n",
			r.Scenario, time.Duration(r.RebuildNS).Round(time.Microsecond),
			time.Duration(r.PatchNS).Round(time.Microsecond), r.Speedup,
			r.Patches, r.Rebuilds, r.Identical)
	}
	return writeBench(outPath, "incremental-rebuild sweep", rowsBench[exp.L5Row]{
		Workload: fmt.Sprintf("scenario library on gen.Clustered (DefaultTopo), delta schedule replayed through one lpmodel.Patcher vs a fresh lpmodel.Build per epoch, per-epoch minimums of %d runs",
			exp.ReplayRuns),
		Rows:      rows,
		Generated: time.Now().UTC().Format(time.RFC3339),
	})
}

// multiSweep runs the L6 workload (exp.L6Rows): the multi-stream scenario
// pair under warm+sticky incremental re-provisioning, the native
// stream/viewer churn accounting next to the copy-split equivalence check.
func multiSweep(outPath string, quick bool) error {
	rows, err := exp.L6Rows(1, sweepEpochs(quick))
	if err != nil {
		return err
	}
	for _, r := range rows {
		fmt.Printf("%s: %d stream switches → %.1f viewer churn (%.1fx copy-split overcount), %d patches, %d builds, lp≡split=%v, auditOK=%v\n",
			r.Scenario, r.StreamChurn, r.ViewerChurn, r.Overcount, r.Patches, r.Rebuilds, r.SplitLPEqual, r.AuditOK)
	}
	return writeBench(outPath, "multi-stream sweep", rowsBench[exp.L6Row]{
		Workload:  "multi-stream scenarios on gen.Clustered (MultiStreamTopo: 3 streams, 2 per sink), warm+sticky, incremental LP",
		Rows:      rows,
		Generated: time.Now().UTC().Format(time.RFC3339),
	})
}

// writeBench writes a sweep's record to path as indented JSON and reports
// what it wrote.
func writeBench(path, what string, record any) error {
	data, err := json.MarshalIndent(record, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %s to %s\n", what, path)
	return nil
}

// aggRow is one viewer-population size of the BENCH_agg.json sweep.
type aggRow struct {
	Viewers    int `json:"viewers"`
	Reflectors int `json:"reflectors"`
	// Groups / AggUnits are the fold's output: weighted super-sinks and the
	// demand units the LP actually solves over (= the LP's sink axis).
	Groups   int `json:"agg_groups"`
	AggUnits int `json:"agg_units"`
	// The one-shot aggregated solve: fold, solve, unfold. Pivots counts its
	// main-LP simplex pivots.
	AggWallNS     int64   `json:"agg_wall_ns"`
	AggCost       float64 `json:"agg_cost"`
	CostPerViewer float64 `json:"agg_cost_per_viewer"`
	AuditOK       bool    `json:"audit_ok"`
	Pivots        int     `json:"pivots"`
	// The trusted unaggregated reference, solved only at sizes where the
	// |R|·|D| monolithic LP is tractable; CostRatio = agg / flat is the
	// aggregation overhead the equivalence harness pins at ≤ 1.05.
	FlatWallNS int64   `json:"flat_wall_ns,omitempty"`
	FlatCost   float64 `json:"flat_cost,omitempty"`
	CostRatio  float64 `json:"cost_ratio,omitempty"`
	// CostPerViewerVsRef pins the large sizes (where no flat solve exists)
	// to the reference row: aggregated cost per viewer relative to the
	// smallest size's, so drift at scale is visible in the artifact.
	CostPerViewerVsRef float64 `json:"cost_per_viewer_vs_ref,omitempty"`
	// The churn timeline: drop 1% → rejoin → weight-neutral swap →
	// repricing, under a session. MaxEpochWallNS is the slowest epoch —
	// always the cold epoch 0 — and MaxChurnEpochWallNS the slowest of the
	// churn epochs after it; EpochWallOK says every epoch stayed inside the
	// budget.
	Epochs              int   `json:"epochs"`
	MaxEpochWallNS      int64 `json:"max_epoch_wall_ns"`
	MaxChurnEpochWallNS int64 `json:"max_churn_epoch_wall_ns"`
	EpochWallOK         bool  `json:"epoch_wall_ok"`
	LPFreeEpochs        int   `json:"lp_free_epochs"`
	WeightChanges       int   `json:"agg_weight_changes"`
	Patches             int   `json:"lp_patches"`
}

// aggBench is the BENCH_agg.json schema.
type aggBench struct {
	Workload        string   `json:"workload"`
	EpochWallBudget string   `json:"epoch_wall_budget"`
	Rows            []aggRow `json:"rows"`
	Generated       string   `json:"generated"`
}

// aggEpochWallBudget bounds every churn epoch of the -aggjson sweep: an
// aggregated epoch at 10^5 viewers is a fold refresh plus a few-hundred-unit
// LP, so two minutes is generous headroom, not a target. What matters is
// that the bound holds FLAT as viewers scale — the aggregate LP's size
// doesn't grow with V (the flat path forfeits outright past ~2000 sinks) —
// and that the worst case, a repricing epoch whose warm start falls back to
// a full cold solve, still fits on a contended CI core.
const aggEpochWallBudget = 120 * time.Second

// aggSweep scales the hierarchical aggregation to production viewer counts:
// each size folds a clustered footprint into weighted super-sinks, solves
// one-shot (against the unaggregated reference where that LP is tractable),
// then drives a short churn timeline through the incremental session —
// including the weight-neutral swap that must solve LP-free. maxViewers gates
// the top sizes: 10^5 is the default sweep, 10^6 the opt-in full footprint.
func aggSweep(outPath string, quick bool, maxViewers int) error {
	const regions, isps = 10, 5
	const flatRefViewers = 250 // largest size the monolithic flat LP solves fast
	sizes := []int{flatRefViewers, 1_000, 10_000, 100_000, 1_000_000}
	if quick {
		sizes = []int{flatRefViewers, 1_000, 10_000}
	}
	bench := aggBench{
		Workload: fmt.Sprintf(
			"gen.Clustered sources=2 regions=%d isps=%d (colors stripped), anchor-grouped aggregation, seed 7; churn: drop 1%% → rejoin → weight-neutral swap → repricing",
			regions, isps),
		EpochWallBudget: aggEpochWallBudget.String(),
		Generated:       time.Now().UTC().Format(time.RFC3339),
	}
	refCPV := 0.0
	for _, viewers := range sizes {
		if viewers > maxViewers && viewers != flatRefViewers {
			fmt.Printf("V=%d: skipped (over -aggmax %d)\n", viewers, maxViewers)
			continue
		}
		in := gen.Clustered(gen.DefaultClustered(2, regions, isps, viewers/regions), 7)
		// Colors stripped, matching the -shardjson scaling workload: the
		// per-color covering rows multiply LP size without changing what this
		// sweep measures (the fold, not the color constraints).
		in.Color = nil
		in.NumColors = 0
		row := aggRow{Viewers: in.NumViewers(), Reflectors: in.NumReflectors, EpochWallOK: true}

		// One-shot aggregated solve, registry attached so the fold's shape
		// comes from the same overlay_agg_* gauges CI scrapes.
		reg := obs.NewRegistry()
		opts := core.DefaultOptions(1)
		opts.Aggregate = &agg.Config{}
		opts.Obs = &obs.Observer{Reg: reg}
		start := time.Now()
		res, err := core.Solve(in.Clone(), opts)
		if err != nil {
			return fmt.Errorf("aggregated V=%d: %w", viewers, err)
		}
		row.AggWallNS = time.Since(start).Nanoseconds()
		row.AggCost = res.Audit.Cost
		row.CostPerViewer = res.Audit.Cost / float64(viewers)
		row.AuditOK = res.AuditOK()
		row.Pivots = res.LPPivots
		row.Groups = int(reg.Gauge(obs.MAggGroups).Value())
		row.AggUnits = int(reg.Gauge(obs.MAggUnits).Value())
		if viewers == flatRefViewers {
			fopts := core.DefaultOptions(1)
			start = time.Now()
			flat, err := core.Solve(in.Clone(), fopts)
			if err != nil {
				return fmt.Errorf("flat V=%d: %w", viewers, err)
			}
			row.FlatWallNS = time.Since(start).Nanoseconds()
			row.FlatCost = flat.Audit.Cost
			row.CostRatio = row.AggCost / flat.Audit.Cost
			refCPV = row.CostPerViewer
		} else if refCPV > 0 {
			row.CostPerViewerVsRef = row.CostPerViewer / refCPV
		}

		// The churn timeline. Membership is fixed at the session's first
		// Step, so the swap pair is chosen on the pristine instance.
		anchors := in.CostAnchors()
		G := in.NumViewers()
		const stride = 100 // every 100th viewer churns: a 1% storm
		var sample []int
		for g := 0; g < G; g += stride {
			sample = append(sample, g)
		}
		thr0 := append([]float64(nil), in.Threshold...)
		// b leaves in the storm and stays out; a is an active viewer of the
		// same aggregate — same anchor AND same stream (the aggregate key is
		// the (group, slot-set) pair).
		b, a := sample[0], -1
		for g := 0; g < G; g++ {
			if g != b && g%stride != 0 && anchors[g] == anchors[b] && in.Commodity[g] == in.Commodity[b] {
				a = g
				break
			}
		}
		sreg := obs.NewRegistry()
		sopts := core.DefaultOptions(7)
		sopts.Aggregate = &agg.Config{}
		sopts.Obs = &obs.Observer{Reg: sreg}
		sess := core.NewSession(sopts, 0, true)
		epoch := func(d *netmodel.Delta) error {
			if d != nil {
				ds, err := d.Apply(in)
				if err != nil {
					return err
				}
				sess.Observe(ds)
			}
			start := time.Now()
			r, err := sess.Step(in)
			if err != nil {
				return err
			}
			wall := time.Since(start).Nanoseconds()
			row.MaxEpochWallNS = max(row.MaxEpochWallNS, wall)
			if row.Epochs > 0 {
				row.MaxChurnEpochWallNS = max(row.MaxChurnEpochWallNS, wall)
			}
			row.Patches += r.LPPatches
			row.Epochs++
			return nil
		}
		drop := &netmodel.Delta{Note: "churn storm: 1% leave"}
		rejoin := &netmodel.Delta{Note: "storm viewers rejoin"}
		for _, g := range sample {
			drop.SetThreshold = append(drop.SetThreshold, netmodel.SinkValue{Sink: g, Value: 0})
			if g != b {
				rejoin.SetThreshold = append(rejoin.SetThreshold, netmodel.SinkValue{Sink: g, Value: thr0[g]})
			}
		}
		deltas := []*netmodel.Delta{nil, drop, rejoin}
		if a >= 0 {
			deltas = append(deltas, &netmodel.Delta{Note: "weight-neutral intra-aggregate swap",
				SetThreshold: []netmodel.SinkValue{{Sink: a, Value: 0}, {Sink: b, Value: in.Threshold[a]}}})
		}
		deltas = append(deltas, &netmodel.Delta{Note: "reflector repricing",
			ScaleReflectorCost: []netmodel.RefValue{{Ref: 0, Value: 1.05}},
			ScaleRefSinkCost:   []netmodel.ArcValue{{A: 1, B: 0, Value: 1.1}}})
		for _, d := range deltas {
			if err := epoch(d); err != nil {
				return fmt.Errorf("churn epoch V=%d: %w", viewers, err)
			}
		}
		row.EpochWallOK = row.MaxEpochWallNS <= aggEpochWallBudget.Nanoseconds()
		row.LPFreeEpochs = int(sreg.Counter(obs.MAggLPFreeEpochs).Value())
		row.WeightChanges = int(sreg.Counter(obs.MAggWeightChanges).Value())

		fmt.Printf("V=%d: %d groups / %d units | agg %v cost %.1f (auditOK=%v)",
			viewers, row.Groups, row.AggUnits,
			time.Duration(row.AggWallNS).Round(time.Millisecond), row.AggCost, row.AuditOK)
		if row.CostRatio > 0 {
			fmt.Printf(" | flat %v (ratio %.3fx)",
				time.Duration(row.FlatWallNS).Round(time.Millisecond), row.CostRatio)
		} else if row.CostPerViewerVsRef > 0 {
			fmt.Printf(" | cost/viewer %.3fx of reference", row.CostPerViewerVsRef)
		}
		fmt.Printf(" | max epoch %v, max churn epoch %v (ok=%v), %d lp-free, %d patches | %d pivots\n",
			time.Duration(row.MaxEpochWallNS).Round(time.Millisecond),
			time.Duration(row.MaxChurnEpochWallNS).Round(time.Millisecond), row.EpochWallOK,
			row.LPFreeEpochs, row.Patches, row.Pivots)
		bench.Rows = append(bench.Rows, row)
	}
	return writeBench(outPath, "aggregation sweep", bench)
}

// benchArtifacts is the CI artifact mode: every BENCH_*.json sweep written
// into one directory, so bench trajectories are reproducible from any CI
// run's artifacts.
func benchArtifacts(dir string, quick bool) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	if err := reportStages(false, filepath.Join(dir, "BENCH_stages.json")); err != nil {
		return fmt.Errorf("stages: %w", err)
	}
	if err := incrSweep(filepath.Join(dir, "BENCH_incr.json"), quick); err != nil {
		return fmt.Errorf("incr: %w", err)
	}
	if err := multiSweep(filepath.Join(dir, "BENCH_multistream.json"), quick); err != nil {
		return fmt.Errorf("multistream: %w", err)
	}
	aggCeil := 100_000
	if quick {
		aggCeil = 10_000
	}
	if err := aggSweep(filepath.Join(dir, "BENCH_agg.json"), quick, aggCeil); err != nil {
		return fmt.Errorf("agg: %w", err)
	}
	return nil
}

// usage reports a flag-validation failure as a usage error: the message plus
// the flag summary on stderr, exit code 2 (the flag package's own code for
// malformed command lines).
func usage(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "overlaybench: "+format+"\n", args...)
	flag.Usage()
	os.Exit(2)
}

// monoProbeOut is the subprocess protocol of -mono-probe: one JSON object
// on stdout.
type monoProbeOut struct {
	WallNS  int64   `json:"wall_ns"`
	Cost    float64 `json:"cost"`
	Pivots  int     `json:"pivots"`
	AuditOK bool    `json:"audit_ok"`
	Err     string  `json:"err,omitempty"`
}

// runMonoProbe is the subprocess side: load, solve monolithically, report.
func runMonoProbe(path string) {
	out := monoProbeOut{}
	in, err := netmodel.LoadFile(path)
	if err == nil {
		start := time.Now()
		var res *core.Result
		res, err = core.Solve(in, core.DefaultOptions(1))
		out.WallNS = time.Since(start).Nanoseconds()
		if err == nil {
			out.Cost = res.Audit.Cost
			out.Pivots = res.LPPivots
			out.AuditOK = res.AuditOK()
		}
	}
	if err != nil {
		out.Err = err.Error()
	}
	json.NewEncoder(os.Stdout).Encode(out)
}

// shardRow is one size of the BENCH_shard.json sweep.
type shardRow struct {
	Sinks       int     `json:"sinks"`
	Reflectors  int     `json:"reflectors"`
	Shards      int     `json:"shards"`
	ShardWallNS int64   `json:"shard_wall_ns"`
	ShardCost   float64 `json:"shard_cost"`
	ShardPivots int     `json:"shard_pivots"`
	Rounds      int     `json:"rounds"`
	AuditOK     bool    `json:"audit_ok"`
	// Fallback marks a row whose "sharded" numbers actually came from the
	// monolithic fallback (coordination could not feed a shard); the mono
	// probe is skipped for such rows — the comparison would be
	// monolithic-vs-monolithic.
	Fallback bool `json:"fallback"`
	// MonoStatus is "ok", "deadline", or "error: ...". On "ok" the mono
	// numbers are real; on "deadline" SpeedupFloor is what the forfeit
	// proves (deadline / sharded wall).
	MonoStatus   string  `json:"mono_status"`
	MonoWallNS   int64   `json:"mono_wall_ns,omitempty"`
	MonoCost     float64 `json:"mono_cost,omitempty"`
	Speedup      float64 `json:"speedup,omitempty"`
	SpeedupFloor float64 `json:"speedup_floor,omitempty"`
	CostRatio    float64 `json:"cost_ratio,omitempty"`
}

// reflectorRow is one |R| size of the reflector-axis sweep: a
// capacity-constrained instance whose shards contend for fanout, solved
// with the flat re-bidding coordination and audited after repair.
type reflectorRow struct {
	Reflectors int     `json:"reflectors"`
	Sinks      int     `json:"sinks"`
	Shards     int     `json:"shards"`
	Fanout     int     `json:"fanout"`
	WallNS     int64   `json:"wall_ns"`
	Rounds     int     `json:"rounds"`
	Resolves   int     `json:"resolves"`
	Pivots     int     `json:"pivots"`
	Cost       float64 `json:"cost"`
	AuditOK    bool    `json:"audit_ok"`
}

// shardBench is the BENCH_shard.json schema.
type shardBench struct {
	Workload     string     `json:"workload"`
	MonoDeadline string     `json:"mono_deadline"`
	Rows         []shardRow `json:"rows"`
	// ReflectorRows is the reflector-axis sweep: fixed sink population,
	// |R| grown 50 → 500 with total fanout capacity held near-constant
	// (scarce), so coordination has contested reflectors to resolve.
	ReflectorRows []reflectorRow `json:"reflector_rows"`
	Generated     string         `json:"generated"`
}

// shardSweep runs the S2 extended scaling sweep: 8-shard solves from 252 to
// 2000 sinks, each against a deadline-bounded monolithic reference run in a
// subprocess (a solve that blows the deadline is killed and recorded as a
// forfeit — the honest way to benchmark against a solver that does not
// terminate at the top size).
func shardSweep(outPath string, deadline time.Duration, quick bool) error {
	sprs := []int{63, 125, 250, 500}
	if quick {
		sprs = []int{25, 50}
	}
	self, err := os.Executable()
	if err != nil {
		return err
	}
	tmp, err := os.MkdirTemp("", "shardsweep")
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp)

	bench := shardBench{
		Workload:     "gen.Clustered sources=2 regions=4 isps=3 (colors stripped), shards=8, seed 7",
		MonoDeadline: deadline.String(),
		Generated:    time.Now().UTC().Format(time.RFC3339),
	}
	for _, spr := range sprs {
		cc := gen.DefaultClustered(2, 4, 3, spr)
		in := gen.Clustered(cc, 7)
		in.Color = nil
		in.NumColors = 0

		opts := core.DefaultOptions(1)
		opts.Shards = 8
		start := time.Now()
		res, err := core.Solve(in, opts)
		if err != nil {
			return fmt.Errorf("sharded D=%d: %w", in.NumSinks, err)
		}
		shardWall := time.Since(start)
		row := shardRow{
			Sinks:       in.NumSinks,
			Reflectors:  in.NumReflectors,
			Shards:      res.ShardInfo.Shards,
			ShardWallNS: shardWall.Nanoseconds(),
			ShardCost:   res.Audit.Cost,
			ShardPivots: res.LPPivots,
			Rounds:      res.ShardInfo.Rounds,
			AuditOK:     res.AuditOK(),
			Fallback:    res.ShardInfo.Fallback,
		}
		if row.Fallback {
			row.MonoStatus = "skipped (sharded solve fell back to monolithic)"
			fmt.Printf("D=%d: FELL BACK to monolithic (%v) — row records no sharded numbers\n",
				in.NumSinks, shardWall.Round(time.Millisecond))
			bench.Rows = append(bench.Rows, row)
			continue
		}

		instPath := filepath.Join(tmp, fmt.Sprintf("inst-%d.json", in.NumSinks))
		if err := in.SaveFile(instPath); err != nil {
			return err
		}

		ctx, cancel := context.WithTimeout(context.Background(), deadline)
		outBytes, err := exec.CommandContext(ctx, self, "-mono-probe", instPath).Output()
		timedOut := ctx.Err() == context.DeadlineExceeded
		cancel()
		var probe monoProbeOut
		switch {
		case timedOut:
			row.MonoStatus = "deadline"
			row.SpeedupFloor = float64(deadline) / float64(shardWall)
		case err != nil:
			row.MonoStatus = "error: " + err.Error()
		default:
			if uerr := json.Unmarshal(outBytes, &probe); uerr != nil {
				out := outBytes
				if len(out) > 120 {
					out = out[:120]
				}
				row.MonoStatus = fmt.Sprintf("error: bad probe output %q: %v", out, uerr)
				break
			}
			if probe.Err != "" {
				row.MonoStatus = "error: " + probe.Err
				break
			}
			row.MonoStatus = "ok"
			row.MonoWallNS = probe.WallNS
			row.MonoCost = probe.Cost
			row.Speedup = float64(probe.WallNS) / float64(row.ShardWallNS)
			row.CostRatio = row.ShardCost / probe.Cost
		}
		fmt.Printf("D=%d: sharded %v cost %.1f | mono %s", in.NumSinks,
			shardWall.Round(time.Millisecond), row.ShardCost, row.MonoStatus)
		if row.MonoStatus == "ok" {
			fmt.Printf(" %v (%.1fx, cost %.3fx)",
				time.Duration(row.MonoWallNS).Round(time.Millisecond), row.Speedup, row.CostRatio)
		} else if row.SpeedupFloor > 0 {
			fmt.Printf(" (≥%.1fx proven)", row.SpeedupFloor)
		}
		fmt.Println()
		bench.Rows = append(bench.Rows, row)
	}
	rows, err := reflectorSweep(quick)
	if err != nil {
		return err
	}
	bench.ReflectorRows = rows
	return writeBench(outPath, "shard sweep", bench)
}

// reflectorSweep grows the reflector axis 50 → 500 over a fixed sink
// population with total fanout capacity held near-constant (≈2.5 service
// slots per sink — scarce enough that shards contend). As |R| grows the
// contested reflectors multiply and every shard LP widens, so the rows track
// how coordination rounds, re-solves and wall scale with the reflector
// count.
func reflectorSweep(quick bool) ([]reflectorRow, error) {
	const regions, isps = 10, 5
	rpcs := []int{1, 2, 4, 10} // |R| = 50, 100, 200, 500
	spr := 16                  // 160 sinks
	if quick {
		rpcs = []int{1, 2}
		spr = 8
	}
	var rows []reflectorRow
	for _, rpc := range rpcs {
		cc := gen.DefaultClustered(2, regions, isps, spr)
		cc.ReflectorsPerColo = rpc
		R := regions * isps * rpc
		D := regions * spr
		// ⌈2.5·D / R⌉: capacity stays scarce as R grows. Floored at 2 —
		// single-slot reflectors are a degenerate knife edge where the
		// clustered generator's cheap sets collapse, not a scarcity regime.
		cc.Fanout = max((5*D/2+R-1)/R, 2)
		in := gen.Clustered(cc, 21)
		in.Color = nil
		in.NumColors = 0

		opts := core.DefaultOptions(21)
		opts.Shards = 8
		opts.ShardRounds = 8
		start := time.Now()
		res, err := core.Solve(in, opts)
		if err != nil {
			return nil, fmt.Errorf("R=%d: %w", R, err)
		}
		wall := time.Since(start)

		// At the engineered 2.5x scarcity the rounded design can leave sinks
		// below quarter weight; running the §7 repair pass INSIDE the solve
		// (opts.RepairCoverage) would heal each shard before the
		// coordination loop ever sees starvation and zero out the very
		// rounds the sweep measures, so repair the final merged design here
		// instead and audit what would actually deploy.
		core.RepairCoverage(in, res.Design, 4)
		a := netmodel.AuditDesign(in, res.Design)

		si := res.ShardInfo
		row := reflectorRow{
			Reflectors: in.NumReflectors, Sinks: in.NumSinks,
			Shards: si.Shards, Fanout: cc.Fanout,
			WallNS: wall.Nanoseconds(), Rounds: si.Rounds,
			Resolves: si.Resolves, Pivots: res.LPPivots, Cost: a.Cost,
			AuditOK: a.StructureOK && core.MeetsGuarantee(a, res.PathRounding),
		}
		fmt.Printf("R=%d D=%d F=%d: %d rounds, %d re-solves, %d pivots, %v, cost %.1f\n",
			R, in.NumSinks, cc.Fanout, row.Rounds, row.Resolves, row.Pivots,
			wall.Round(time.Millisecond), row.Cost)
		rows = append(rows, row)
	}
	return rows, nil
}
