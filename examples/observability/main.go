// Observability: run a live churn timeline with the full telemetry tap on —
// the canonical metrics registry, the hierarchical solve tracer, and the
// per-epoch hook the overlaylive CLI uses to feed its /healthz and /slo
// endpoints — then render what came out: Prometheus exposition text, the
// per-stage wall quantiles, and a flame summary of the span tree.
//
// The same observer plugged into live.Config here is what
// `overlaylive -listen :8080 -trace run.jsonl` wires up for real serving
// (plus net/http/pprof); obs.NewServer(reg).Handler() is the HTTP side.
//
//	go run ./examples/observability
package main

import (
	"bytes"
	"fmt"
	"log"
	"strings"
	"time"

	"repro/internal/live"
	"repro/internal/obs"
)

func main() {
	// A 16-epoch flash crowd under the warm+sticky policy.
	sc := live.FlashCrowd(7, 16)

	// The observer: one metrics registry (pre-registered with the canonical
	// overlay_* families) and one JSONL tracer. Everything the solve stack
	// records flows through this pair; a nil observer costs nothing and
	// leaves the run byte-identical.
	reg := obs.NewRegistry()
	obs.Canonical(reg)
	var trace bytes.Buffer
	cfg := live.Config{
		Policy: live.WarmStickyPolicy(),
		Obs:    &obs.Observer{Reg: reg, Tr: obs.NewTracer(&trace)},
		OnEpoch: func(er live.EpochReport) {
			// The CLI uses this hook to refresh /healthz and /slo.
			if len(er.Events) > 0 {
				fmt.Printf("epoch %2d: %-38s cost %.1f, %d pivots, SLO window %.0f%%\n",
					er.Epoch, strings.Join(er.Events, "; "), er.TrueCost, er.Pivots, 100*er.SLOWindowFrac)
			}
		},
	}
	rep, err := live.Run(sc, cfg)
	if err != nil {
		log.Fatal(err)
	}

	// The registry, in Prometheus text exposition format (what /metrics
	// serves). Shown here filtered to the epoch and solver counters.
	var prom bytes.Buffer
	if err := reg.WriteProm(&prom); err != nil {
		log.Fatal(err)
	}
	fmt.Println("\n=== /metrics (excerpt) ===")
	for _, line := range strings.Split(prom.String(), "\n") {
		if strings.HasPrefix(line, "overlay_epochs_total") ||
			strings.HasPrefix(line, "overlay_solves_total") ||
			strings.HasPrefix(line, "overlay_lp_pivots_total") ||
			strings.HasPrefix(line, "overlay_lp_ft_updates_total") ||
			strings.HasPrefix(line, "overlay_lp_patched_cells_total") ||
			strings.HasPrefix(line, "overlay_slo_window_availability") {
			fmt.Println(line)
		}
	}

	// Per-stage wall quantiles across the timeline (also in the -json
	// report as epoch_wall_quantiles / stage_wall_quantiles).
	fmt.Println("\n=== stage wall quantiles across epochs ===")
	fmt.Printf("%-12s %12s %12s %12s\n", "stage", "p50", "p95", "p99")
	fmt.Printf("%-12s %12v %12v %12v\n", "(epoch)",
		time.Duration(rep.EpochWallQuantiles.P50NS),
		time.Duration(rep.EpochWallQuantiles.P95NS),
		time.Duration(rep.EpochWallQuantiles.P99NS))
	for _, stage := range []string{"lp-patch", "lp-solve", "round", "audit"} {
		if q, ok := rep.StageWallQuantiles[stage]; ok {
			fmt.Printf("%-12s %12v %12v %12v\n", stage,
				time.Duration(q.P50NS), time.Duration(q.P95NS), time.Duration(q.P99NS))
		}
	}

	// The span tree, aggregated into a flame summary: epoch spans at the
	// root, core stages beneath, simplex events (refactorizations, FT
	// adoptions, column replacements) counted per span.
	recs, err := obs.ReadTrace(&trace)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\n=== flame summary of the solve trace ===")
	fmt.Print(obs.Flame(recs).Render())
}
