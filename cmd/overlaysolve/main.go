// Command overlaysolve runs the paper's approximation algorithm on an
// instance JSON file, prints the audit, and optionally writes the design.
//
// Usage:
//
//	overlaysolve -in instance.json [-o design.json] [-seed 1] [-c 64]
//	             [-greedy] [-exact] [-shards 8] [-aggregate [-agg-colo 4]]
//	             [-repair] [-prior design.json [-stickiness 0.5]]
//	             [-json report.json] [-stages] [-trace trace.jsonl]
//	overlaysolve -in instance.json -lp-only [-aggregate [-agg-colo 4]]
//
// -greedy and -exact run the baseline / exact IP solver instead of the
// LP-rounding algorithm (exact is exponential: tiny instances only).
// -shards ≥ 2 solves one LP per commodity-region shard in parallel with a
// capacity-coordination pass instead of the monolithic LP — the scaling
// path for thousands of sinks. -aggregate folds viewers into weighted
// super-sinks first (internal/agg). -json writes a machine-readable report
// (per-stage timings, audit, shard counters) next to the human output;
// -trace writes the hierarchical solve trace (pipeline stages, per-shard
// solves, simplex refactorization/adoption events) as JSONL.
//
// -lp-only solves the §2 LP relaxation alone (lpmodel.Build and
// lpmodel.SolveBuiltOpts), on the -aggregate fold's plane when given, and
// prints the bound a full monolithic solve reports. It makes no design and
// runs no pipeline, so combining it with -prior, -o, -repair, -shards,
// -stages, -trace or -json is a usage error (exit 2).
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/agg"
	"repro/internal/bnb"
	"repro/internal/core"
	"repro/internal/greedy"
	"repro/internal/lp"
	"repro/internal/lpmodel"
	"repro/internal/netmodel"
	"repro/internal/obs"
)

func main() {
	var (
		inPath  = flag.String("in", "", "instance JSON file (required)")
		outPath = flag.String("o", "", "write the design JSON here")
		seed    = flag.Uint64("seed", 1, "randomized-rounding seed")
		c       = flag.Float64("c", 64, "rounding constant c (§3; 64 ⇒ δ=1/4)")
		useG    = flag.Bool("greedy", false, "run the greedy baseline instead")
		useX    = flag.Bool("exact", false, "run exact branch-and-bound instead (tiny instances!)")
		lpOnly  = flag.Bool("lp-only", false, "solve the LP relaxation only (after the -aggregate fold, if given)")
		repair  = flag.Bool("repair", false, "top coverage up to full demand after rounding (§7 heuristic)")
		prior   = flag.String("prior", "", "prior design JSON for churn-aware re-solve (§1.3)")
		sticky  = flag.Float64("stickiness", 0.5, "cost discount on prior arcs during re-solve, in [0,1)")
		shards  = flag.Int("shards", 0, "≥2: solve one LP per commodity-region shard in parallel (internal/shard)")
		aggr    = flag.Bool("aggregate", false, "fold viewers into weighted super-sinks before the LP and disaggregate after (internal/agg)")
		aggColo = flag.Int("agg-colo", 0, "≥2: group aggregates by cost-anchor COLO of this many reflectors instead of per reflector (caps the fold at R/N labels; needs -aggregate)")
		jsonOut = flag.String("json", "", "write a machine-readable solve report (stages, audit, shard counters) here")
		stages  = flag.Bool("stages", false, "print the per-stage pipeline instrumentation (lp-build/lp-patch/lp-solve/... wall and run counts)")
		trace   = flag.String("trace", "", "write the hierarchical solve trace (stages, shards, simplex events) as JSONL to this file")
	)
	flag.Parse()
	if *inPath == "" {
		usage("-in is required")
	}
	if *jsonOut != "" && (*useG || *useX || *lpOnly) {
		usage("-json requires a full LP-rounding solve (not -greedy/-exact/-lp-only)")
	}
	if *lpOnly {
		// The relaxation alone has no design and runs no pipeline stage.
		flag.Visit(func(f *flag.Flag) {
			switch f.Name {
			case "prior", "o", "repair", "shards", "stages", "trace":
				usage("-%s needs a design or the solve pipeline (not -lp-only)", f.Name)
			}
		})
	}
	if *shards < 0 {
		usage("-shards %d is negative (want 0, or ≥ 2 to shard)", *shards)
	}
	if *aggr && (*useG || *useX) {
		usage("-aggregate requires the LP pipeline (not -greedy/-exact)")
	}
	if *aggColo < 0 || *aggColo == 1 {
		usage("-agg-colo %d out of range (want 0 = per-reflector anchors, or ≥ 2 reflectors per colo)", *aggColo)
	}
	if *aggColo >= 2 && !*aggr {
		usage("-agg-colo requires -aggregate")
	}
	if *trace != "" && (*useG || *useX) {
		usage("-trace requires the LP pipeline (not -greedy/-exact)")
	}
	in, err := netmodel.LoadFile(*inPath)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("instance %s: |S|=%d |R|=%d |D|=%d colors=%d\n",
		in.Name, in.NumSources, in.NumReflectors, in.NumSinks, in.NumColors)
	var aggCfg *agg.Config
	if *aggr {
		aggCfg = &agg.Config{}
		if *aggColo >= 2 {
			aggCfg.GroupOf = agg.ColoGroups(in, *aggColo)
		}
	}

	var design *netmodel.Design
	var solveRes *core.Result
	start := time.Now()
	switch {
	case *useG:
		g := greedy.Greedy(in)
		design = g.Design
		fmt.Printf("greedy: covered %d/%d sinks in %v\n", g.Covered, g.Demanding, time.Since(start).Round(time.Millisecond))
	case *useX:
		res, err := bnb.Solve(in, bnb.Options{})
		if err != nil {
			fatal(err)
		}
		if res.Design == nil {
			fatal(errors.New("no feasible integral design found"))
		}
		design = res.Design
		fmt.Printf("exact IP: cost %.4f (optimal=%v, %d nodes) in %v\n",
			res.Cost, res.Optimal, res.Nodes, time.Since(start).Round(time.Millisecond))
	case *lpOnly:
		// The LP a monolithic solve solves: on the aggregate plane of the
		// same fold when aggregated.
		plane := in
		if aggCfg != nil {
			fold, err := agg.Build(in, *aggCfg)
			if err != nil {
				fatal(err)
			}
			plane = fold.Agg
		}
		start = time.Now()
		prob, vm := lpmodel.Build(plane, lpmodel.DefaultOptions(plane))
		frac, err := lpmodel.SolveBuiltOpts(plane, prob, vm, lp.Options{})
		if err != nil {
			fatal(err)
		}
		fmt.Printf("LP relaxation: cost %.4f, %d vars, %d rows, %d pivots, %v\n",
			frac.Cost, prob.NumVars(), prob.NumRows(), frac.Iterations, time.Since(start).Round(time.Microsecond))
		return
	default:
		opts := core.DefaultOptions(*seed)
		opts.C = *c
		opts.RepairCoverage = *repair
		opts.Shards = *shards
		opts.Aggregate = aggCfg
		// A trace-only observer: spans for every pipeline stage, per-shard
		// solve, and simplex event, with no metrics registry attached.
		var tracer *obs.Tracer
		var traceFile *os.File
		if *trace != "" {
			traceFile, err = os.Create(*trace)
			if err != nil {
				fatal(err)
			}
			tracer = obs.NewTracer(traceFile)
			opts.Obs = &obs.Observer{Tr: tracer}
		}
		var res *core.Result
		if *prior != "" {
			pf, err := os.Open(*prior)
			if err != nil {
				fatal(err)
			}
			priorDesign, err := netmodel.ReadDesignJSON(pf)
			pf.Close()
			if err != nil {
				fatal(err)
			}
			re, err := core.Reoptimize(in, priorDesign, *sticky, opts)
			if err != nil {
				fatal(err)
			}
			fmt.Printf("churn-aware re-solve: %d service arcs changed, %d reflectors flipped\n",
				re.ArcChurn, re.ReflectorChurn)
			res = re.Result
		} else {
			res, err = core.Solve(in, opts)
			if err != nil {
				fatal(err)
			}
		}
		solveRes = res
		if tracer != nil {
			if terr := tracer.Err(); terr != nil {
				fatal(fmt.Errorf("trace: %w", terr))
			}
			if terr := traceFile.Close(); terr != nil {
				fatal(fmt.Errorf("trace: %w", terr))
			}
			fmt.Printf("wrote solve trace to %s\n", *trace)
		}
		if si := res.ShardInfo; si != nil {
			fmt.Printf("sharded solve: %d shards, %d coordination rounds, %d re-solves, %d builds consolidated\n",
				si.Shards, si.Rounds, si.Resolves, si.ConsolidatedBuilds)
			fmt.Printf("shard LPs: Σcost %.4f, Σ%d vars, Σ%d rows, Σ%d pivots, %v\n",
				res.LPCost, res.LPVars, res.LPRows, res.LPPivots,
				res.StageWall("shard-solve", "shard-coordinate").Round(time.Microsecond))
		} else {
			fmt.Printf("LP relaxation: cost %.4f, %d vars, %d rows, %d pivots, %v\n",
				res.LPCost, res.LPVars, res.LPRows, res.LPPivots,
				res.StageWall("lp-build", "lp-patch", "lp-solve").Round(time.Microsecond))
		}
		design = res.Design
		fmt.Printf("algorithm: %s rounding, %d retries\n", map[bool]string{true: "§6.5 path", false: "§5 GAP"}[res.PathRounding], res.Retries)
		if res.ShardInfo == nil {
			fmt.Printf("cost ratio vs LP bound: %.3f\n", res.ApproxRatio())
		}
	}

	audit := netmodel.AuditDesign(in, design)
	fmt.Printf("audit: %v\n", audit)
	if *stages && solveRes != nil {
		fmt.Println("pipeline stages:")
		for _, s := range solveRes.Stages {
			fmt.Printf("  %-18s %12s %4d run(s)\n", s.Name, s.Wall.Round(time.Microsecond), s.Runs)
		}
	}
	if *jsonOut != "" && solveRes != nil {
		if err := writeReport(*jsonOut, in, solveRes, audit); err != nil {
			fatal(err)
		}
		fmt.Printf("wrote solve report to %s\n", *jsonOut)
	}
	if *outPath != "" {
		if err := writeDesign(*outPath, design); err != nil {
			fatal(err)
		}
		fmt.Printf("wrote design to %s\n", *outPath)
	}
}

// usage reports a flag-validation failure as a usage error: the message plus
// the flag summary on stderr, exit code 2 (the flag package's own code for
// malformed command lines).
func usage(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "overlaysolve: "+format+"\n", args...)
	flag.Usage()
	os.Exit(2)
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "overlaysolve: %v\n", err)
	os.Exit(1)
}

// writeDesign writes the design to path as JSON; a failed Close fails the
// write.
func writeDesign(path string, d *netmodel.Design) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := netmodel.WriteDesignJSON(f, d); err != nil {
		return err
	}
	return f.Close()
}

// solveReport is the -json schema: instance identity, audit verdict,
// per-stage pipeline instrumentation, and (for sharded runs) the shard
// counters. The CI smoke run checks the stage names of a -shards solve
// against this schema.
type solveReport struct {
	Instance string  `json:"instance"`
	Sinks    int     `json:"sinks"`
	Shards   int     `json:"shards"`
	Cost     float64 `json:"cost"`
	LPCost   float64 `json:"lp_cost"`
	Pivots   int     `json:"pivots"`
	Retries  int     `json:"retries"`
	AuditOK  bool    `json:"audit_ok"`
	Stages   []struct {
		Name   string `json:"name"`
		WallNS int64  `json:"wall_ns"`
		Runs   int    `json:"runs"`
	} `json:"stages"`
	ShardRounds        int  `json:"shard_rounds"`
	ShardResolves      int  `json:"shard_resolves"`
	ConsolidatedBuilds int  `json:"consolidated_builds"`
	Fallback           bool `json:"fallback"`
}

func writeReport(path string, in *netmodel.Instance, res *core.Result, audit netmodel.Audit) error {
	rep := solveReport{
		Instance: in.Name,
		Sinks:    in.NumSinks,
		Cost:     audit.Cost,
		LPCost:   res.LPCost,
		Pivots:   res.LPPivots,
		Retries:  res.Retries,
		AuditOK:  res.AuditOK(),
	}
	if si := res.ShardInfo; si != nil {
		rep.Shards = si.Shards
		rep.ShardRounds = si.Rounds
		rep.ShardResolves = si.Resolves
		rep.ConsolidatedBuilds = si.ConsolidatedBuilds
		rep.Fallback = si.Fallback
	}
	for _, s := range res.Stages {
		rep.Stages = append(rep.Stages, struct {
			Name   string `json:"name"`
			WallNS int64  `json:"wall_ns"`
			Runs   int    `json:"runs"`
		}{s.Name, s.Wall.Nanoseconds(), s.Runs})
	}
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
