// Command overlaylive drives the live churn engine: it builds a timed
// scenario (flash crowd, diurnal wave, rolling ISP outages, correlated
// backbone failure, gradual repricing, per-stream popularity waves and
// correlated stream failover on multi-stream sinks), advances it epoch by
// epoch while
// re-provisioning the overlay the way §1.3's monitoring loop prescribes,
// and reports per-epoch cost, churn, pivots and audit status — optionally
// comparing the cold re-solve baseline against warm-started sticky
// re-optimization on the same timeline.
//
// Usage:
//
//	overlaylive -scenario flashcrowd -epochs 50          # both policies
//	overlaylive -scenario rollingisp -policy warm -v     # per-epoch detail
//	overlaylive -scenario diurnal -sim 2000              # packet-sim epochs
//	overlaylive -scenario flashcrowd -json out.json      # machine-readable
//	overlaylive -scenario flashcrowd -shards 3           # sharded epochs
//	overlaylive -scenario backbone -record trace.json    # save the delta schedule
//	overlaylive -replay trace.json -policy warm          # replay a saved trace
//	overlaylive -scenario flashcrowd -listen :8080       # live telemetry endpoint
//	overlaylive -scenario diurnal -trace run.jsonl -flame # hierarchical solve trace
//
// Each epoch's LP is patched in place from the epoch's deltas (the lp-patch
// stage), and a sliding-window availability SLO is tracked next to the
// audit (-slowindow/-slotarget).
//
// -listen starts the internal/obs debug server for the duration of the run:
// /metrics (Prometheus text), /healthz (liveness + run progress), /slo
// (windowed availability with per-region breakdowns), /debug/vars and
// /debug/pprof. Pair it with -pace to keep a short timeline scrapeable and
// -hold to keep serving after the timeline finishes. -trace writes the
// hierarchical solve trace (epoch → stage → shard → simplex events) as
// JSONL; -flame prints an aggregated flame summary of that trace.
//
// Everything is deterministic in -seed except wall-clock fields; the
// observability flags never change the solve (metrics and traces are
// read-only taps).
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net"
	"os"
	"strings"
	"time"

	"repro/internal/agg"
	"repro/internal/live"
	"repro/internal/obs"
	"repro/internal/stats"
)

func main() {
	var (
		scenario   = flag.String("scenario", "flashcrowd", "scenario: "+strings.Join(live.Names(), "|"))
		epochs     = flag.Int("epochs", 50, "timeline length in epochs")
		seed       = flag.Uint64("seed", 1, "scenario seed (events, topology, rounding)")
		policy     = flag.String("policy", "both", "re-provisioning policy: cold|warm|both")
		stickiness = flag.Float64("stickiness", 0.4, "deployed-design cost discount for the warm policy, in [0,1)")
		shards     = flag.Int("shards", 0, "≥2: sharded per-epoch solves with per-shard warm state (internal/shard)")
		aggr       = flag.Bool("aggregate", false, "fold viewers into weighted super-sinks before every epoch's LP (internal/agg)")
		simPkts    = flag.Int("sim", 0, "packets per simulated epoch (0 = no packet sim)")
		simEvery   = flag.Int("simevery", 1, "simulate every n-th epoch")
		jsonPath   = flag.String("json", "", "write the full report as JSON to this file")
		verbose    = flag.Bool("v", false, "print every epoch (default: only event epochs)")
		record     = flag.String("record", "", "serialize the scenario (base instance + timed delta schedule) as JSON to this file")
		replay     = flag.String("replay", "", "run a scenario recorded with -record instead of building one (-scenario/-epochs/-seed ignored)")
		sloWindow  = flag.Int("slowindow", 8, "availability SLO sliding window, in epochs")
		sloTarget  = flag.Float64("slotarget", 0.5, "fraction of active sinks that must meet their threshold for an epoch to count as available (raise toward 1 with -repair-style solvers)")
		listen     = flag.String("listen", "", "serve live telemetry on this address during the run: /metrics, /healthz, /slo, /debug/vars, /debug/pprof")
		tracePath  = flag.String("trace", "", "write the hierarchical solve trace (epoch → stage → shard → simplex events) as JSONL to this file")
		flame      = flag.Bool("flame", false, "print an aggregated flame summary of the solve trace after the run (implies tracing)")
		pace       = flag.Duration("pace", 0, "sleep this long after every epoch — keeps a short -listen run scrapeable mid-flight")
		hold       = flag.Duration("hold", 0, "keep the -listen server up this long after the timeline finishes")
	)
	flag.Parse()
	// Flag validation: malformed requests are usage errors (exit 2), caught
	// before any file or socket is touched. -epochs is only checked when it
	// is actually used — -replay ignores it by documented contract.
	if *replay == "" && *epochs <= 0 {
		usage("-epochs must be positive, got %d", *epochs)
	}
	if *shards < 0 {
		usage("-shards must be ≥ 0, got %d", *shards)
	}
	if *pace < 0 || *hold < 0 {
		usage("-pace and -hold must be ≥ 0")
	}
	if *listen == "" && (*pace > 0 || *hold > 0) {
		usage("-pace/-hold only make sense with -listen (they exist to keep the telemetry endpoint scrapeable)")
	}
	var sc *live.Scenario
	var err error
	if *replay != "" {
		f, ferr := os.Open(*replay)
		if ferr != nil {
			fatal(ferr)
		}
		sc, err = live.ReadScenario(f)
		f.Close()
	} else {
		sc, err = live.Make(*scenario, *seed, *epochs)
	}
	if err != nil {
		fatal(err)
	}
	if *record != "" {
		f, ferr := os.Create(*record)
		if ferr != nil {
			fatal(ferr)
		}
		if err := live.WriteScenario(f, sc); err != nil {
			f.Close()
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
		fmt.Printf("recorded scenario %s (%d events over %d epochs) to %s\n",
			sc.Name, len(sc.Events), sc.Epochs, *record)
	}
	var policies []live.Policy
	warm := live.WarmStickyPolicy()
	warm.Stickiness = *stickiness
	switch *policy {
	case "cold":
		policies = []live.Policy{live.ColdPolicy()}
	case "warm":
		policies = []live.Policy{warm}
	case "both":
		policies = []live.Policy{live.ColdPolicy(), warm}
	default:
		fatal(fmt.Errorf("unknown policy %q (want cold|warm|both)", *policy))
	}

	cfg := live.Config{
		SimPackets: *simPkts, SimEvery: *simEvery,
		SLOWindow: *sloWindow, SLOTarget: *sloTarget,
	}
	cfg.Solver.Shards = *shards
	if *aggr {
		cfg.Solver.Aggregate = &agg.Config{}
	}

	// Observability surfaces. The registry backs -listen's /metrics; the
	// tracer backs -trace/-flame. Both are nil (and the run byte-identical
	// to an uninstrumented one) unless asked for.
	var (
		reg       *obs.Registry
		server    *obs.Server
		tracer    *obs.Tracer
		traceFile *os.File
		flameBuf  *bytes.Buffer
	)
	if *listen != "" {
		reg = obs.NewRegistry()
		obs.Canonical(reg)
		server = obs.NewServer(reg)
		ln, lerr := net.Listen("tcp", *listen)
		if lerr != nil {
			fatal(lerr)
		}
		go func() {
			if serr := obs.HTTPServer(server.Handler()).Serve(ln); serr != nil {
				fmt.Fprintf(os.Stderr, "overlaylive: telemetry server: %v\n", serr)
			}
		}()
		fmt.Printf("telemetry on http://%s (/metrics /healthz /slo /debug/pprof)\n", ln.Addr())
	}
	var traceW io.Writer
	if *tracePath != "" {
		f, ferr := os.Create(*tracePath)
		if ferr != nil {
			fatal(ferr)
		}
		traceFile = f
		traceW = f
	}
	if *flame {
		flameBuf = &bytes.Buffer{}
		if traceW != nil {
			traceW = io.MultiWriter(traceFile, flameBuf)
		} else {
			traceW = flameBuf
		}
	}
	if traceW != nil {
		tracer = obs.NewTracer(traceW)
	}
	if reg != nil || tracer != nil {
		cfg.Obs = &obs.Observer{Reg: reg, Tr: tracer}
	}

	start := time.Now()
	// Run each policy with its own telemetry hook (live.ComparePolicies
	// inlined, so /healthz and /slo can name the policy currently running).
	reps := make([]*live.RunReport, 0, len(policies))
	for _, p := range policies {
		c := cfg
		c.Policy = p
		pname := p.Name
		breaches, minWin := 0, 1.0
		c.OnEpoch = func(er live.EpochReport) {
			if !er.SLOOk {
				breaches++
			}
			if er.SLOWindowFrac < minWin {
				minWin = er.SLOWindowFrac
			}
			if server != nil {
				server.SetHealth(obs.HealthStatus{
					OK: er.AuditOK, Running: true,
					Scenario: sc.Name, Policy: pname,
					Epoch: er.Epoch, Epochs: sc.Epochs,
					AuditOK: er.AuditOK, SLOOk: er.SLOOk,
				})
				server.SetSLO(obs.SLOStatus{
					Window: *sloWindow, Target: *sloTarget,
					Ok: er.SLOOk, WindowFrac: er.SLOWindowFrac,
					Breaches: breaches, MinWindowFrac: minWin,
					Regions: er.Regions, Streams: er.Streams,
				})
			}
			if *pace > 0 {
				time.Sleep(*pace)
			}
		}
		rep, rerr := live.Run(sc, c)
		if rerr != nil {
			fatal(fmt.Errorf("policy %q: %w", pname, rerr))
		}
		reps = append(reps, rep)
	}
	if server != nil {
		allOK := true
		for _, rep := range reps {
			allOK = allOK && rep.AllAuditOK
		}
		last := reps[len(reps)-1]
		server.SetHealth(obs.HealthStatus{
			OK: allOK, Running: false,
			Scenario: sc.Name, Policy: last.Policy.Name,
			Epoch: sc.Epochs - 1, Epochs: sc.Epochs,
			AuditOK: last.AllAuditOK, SLOOk: last.SLOBreaches == 0,
		})
	}

	for _, rep := range reps {
		printRun(rep, *verbose)
	}
	if len(reps) == 2 {
		printComparison(reps[0], reps[1])
	}
	fmt.Printf("timeline finished in %v\n", time.Since(start).Round(time.Millisecond))

	if *jsonPath != "" {
		out := liveReport{
			Scenario:  sc.Name,
			Epochs:    sc.Epochs,
			Seed:      sc.Seed,
			Events:    len(sc.Events),
			Runs:      reps,
			Generated: time.Now().UTC().Format(time.RFC3339),
		}
		data, err := json.MarshalIndent(out, "", "  ")
		if err != nil {
			fatal(err)
		}
		if err := os.WriteFile(*jsonPath, append(data, '\n'), 0o644); err != nil {
			fatal(err)
		}
		fmt.Printf("wrote live report to %s\n", *jsonPath)
	}

	if tracer != nil {
		if err := tracer.Err(); err != nil {
			fatal(fmt.Errorf("trace: %w", err))
		}
	}
	if traceFile != nil {
		if err := traceFile.Close(); err != nil {
			fatal(err)
		}
		fmt.Printf("wrote solve trace to %s\n", *tracePath)
	}
	if *flame {
		recs, rerr := obs.ReadTrace(bytes.NewReader(flameBuf.Bytes()))
		if rerr != nil {
			fatal(fmt.Errorf("trace: %w", rerr))
		}
		fmt.Print(obs.Flame(recs).Render())
	}
	if *hold > 0 && server != nil {
		fmt.Printf("holding telemetry server for %v\n", *hold)
		time.Sleep(*hold)
	}
}

// liveReport is the -json schema: scenario metadata plus one RunReport per
// policy, in run order.
type liveReport struct {
	Scenario  string            `json:"scenario"`
	Epochs    int               `json:"epochs"`
	Seed      uint64            `json:"seed"`
	Events    int               `json:"events"`
	Runs      []*live.RunReport `json:"runs"`
	Generated string            `json:"generated"`
}

func printRun(rep *live.RunReport, verbose bool) {
	t := stats.NewTable(
		fmt.Sprintf("%s — policy %s (stickiness %.2f, warm start %v)",
			rep.Scenario, rep.Policy.Name, rep.Policy.Stickiness, rep.Policy.WarmStart),
		"epoch", "events", "active", "cost", "pivots", "arc churn", "builds", "weight", "ok")
	for _, er := range rep.Epochs {
		if !verbose && len(er.Events) == 0 && er.Epoch != 0 {
			continue
		}
		ev := strings.Join(er.Events, "; ")
		if len(ev) > 36 {
			ev = ev[:33] + "..."
		}
		if er.Epoch == 0 && ev == "" {
			ev = "(initial provisioning)"
		}
		t.AddRowf(er.Epoch, ev, er.ActiveSinks, er.TrueCost, er.Pivots, er.ArcChurn,
			er.BuiltReflectors, er.WeightFactor, yesNo(er.AuditOK))
	}
	t.AddNote("totals: pivots=%d arcChurn=%d reflChurn=%d cost=%.1f wall=%v allAuditsOK=%v",
		rep.TotalPivots, rep.TotalArcChurn, rep.TotalReflectorChurn,
		rep.TotalTrueCost, time.Duration(rep.TotalWallNS).Round(time.Microsecond), yesNo(rep.AllAuditOK))
	if rep.TotalStreamChurn > 0 {
		t.AddNote("stream churn: %d subscription switches = %.1f viewers (fractional, real-sink accounting)",
			rep.TotalStreamChurn, rep.TotalViewerChurn)
	}
	t.AddNote("lp rebuild: %d full builds, %d cells patched in place (%v in lp-build + lp-patch)",
		rep.TotalLPRebuilds, rep.TotalLPPatches, time.Duration(rep.LPConstructionNS()).Round(time.Microsecond))
	t.AddNote("SLO (window %d, target %.0f%% of active sinks): min window availability %.1f%%, %d/%d epochs breached",
		rep.SLOWindow, 100*rep.SLOTarget, 100*rep.MinSLOWindow, rep.SLOBreaches, len(rep.Epochs))
	fmt.Println(t.String())
}

func printComparison(cold, warm *live.RunReport) {
	t := stats.NewTable("cold vs warm+sticky on the same timeline",
		"metric", "cold", "warm+sticky", "ratio")
	ratio := func(a, b float64) string {
		if b == 0 {
			return "-"
		}
		return fmt.Sprintf("%.1fx", a/b)
	}
	t.AddRowf("Σ simplex pivots", cold.TotalPivots, warm.TotalPivots,
		ratio(float64(cold.TotalPivots), float64(warm.TotalPivots)))
	t.AddRowf("Σ arc churn", cold.TotalArcChurn, warm.TotalArcChurn,
		ratio(float64(cold.TotalArcChurn), float64(warm.TotalArcChurn)))
	t.AddRowf("Σ reflector churn", cold.TotalReflectorChurn, warm.TotalReflectorChurn,
		ratio(float64(cold.TotalReflectorChurn), float64(warm.TotalReflectorChurn)))
	if cold.TotalStreamChurn > 0 || warm.TotalStreamChurn > 0 {
		t.AddRowf("Σ stream churn", cold.TotalStreamChurn, warm.TotalStreamChurn,
			ratio(float64(cold.TotalStreamChurn), float64(warm.TotalStreamChurn)))
		t.AddRowf("Σ viewer churn", fmt.Sprintf("%.1f", cold.TotalViewerChurn),
			fmt.Sprintf("%.1f", warm.TotalViewerChurn),
			ratio(cold.TotalViewerChurn, warm.TotalViewerChurn))
	}
	t.AddRowf("Σ true cost", cold.TotalTrueCost, warm.TotalTrueCost,
		ratio(cold.TotalTrueCost, warm.TotalTrueCost))
	t.AddRowf("wall time", time.Duration(cold.TotalWallNS).Round(time.Microsecond).String(),
		time.Duration(warm.TotalWallNS).Round(time.Microsecond).String(),
		ratio(float64(cold.TotalWallNS), float64(warm.TotalWallNS)))
	fmt.Println(t.String())
}

func yesNo(b bool) string {
	if b {
		return "yes"
	}
	return "NO"
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "overlaylive: %v\n", err)
	os.Exit(1)
}

// usage reports a flag-validation failure as a usage error: the message plus
// the flag summary on stderr, exit code 2 (the flag package's own code for
// malformed command lines).
func usage(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "overlaylive: "+format+"\n", args...)
	flag.Usage()
	os.Exit(2)
}
