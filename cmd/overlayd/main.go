// Command overlayd is the long-running provisioning daemon: it keeps an
// overlay multicast deployment continuously optimized while Deltas stream
// in over HTTP, the way §1.3's monitoring loop prescribes. Where
// overlaylive replays a fixed scenario to completion, overlayd runs an
// open-ended timeline — ingested deltas queue, a solver loop consumes them
// on a cadence (-interval) or as soon as queued churn crosses a pressure
// threshold (-pressure), and every published design keeps serving placement
// lookups lock-free while the next solve runs. Every solve warm-starts from
// the previous epoch's basis and patches the LP in place from the applied
// deltas.
//
// Usage:
//
//	overlayd -listen :8080 -scenario clustered            # synthetic base
//	overlayd -listen :8080 -instance net.json             # instance file
//	overlayd -listen :8080 -snapshot state.json           # snapshot on SIGTERM
//	overlayd -listen :8080 -snapshot state.json -resume   # warm restart
//	overlayd -listen :8080 -interval 5s -pressure 32      # solve cadence
//
// API (all JSON; the internal/obs debug server mounts on the same
// listener):
//
//	POST /deltas      ingest one netmodel.Delta or a JSON array
//	GET  /placement   ?sink=S[&stream=K] — which reflectors feed the sink
//	GET  /design      the deployed design
//	GET  /status      control-plane state + last epoch report
//	POST /solve       force a re-optimization now
//	POST /snapshot    persist state to the -snapshot path
//	GET  /scenario    ingest history as a replayable scenario (overlaylive -replay)
//	GET  /metrics /healthz /slo /debug/vars /debug/pprof
//
// On SIGTERM/SIGINT the daemon writes a final snapshot (when -snapshot is
// set) and shuts the listener down gracefully. A restart with -resume picks
// the snapshot up and continues warm: same step counter, same deployed
// design, the persisted simplex basis adopted by the first post-restart
// solve instead of a cold refactorization. Everything is deterministic in
// the ingest history except wall-clock fields.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/agg"
	"repro/internal/daemon"
	"repro/internal/live"
	"repro/internal/netmodel"
	"repro/internal/obs"
)

func main() {
	var (
		listen     = flag.String("listen", ":8080", "serve the HTTP API on this address")
		instPath   = flag.String("instance", "", "boot from this netmodel instance JSON file")
		scenario   = flag.String("scenario", "", "boot from this scenario's base instance instead of -instance: "+strings.Join(live.Names(), "|"))
		seed       = flag.Uint64("seed", 1, "solver seed (and -scenario topology seed)")
		stickiness = flag.Float64("stickiness", live.WarmStickyPolicy().Stickiness, "deployed-design cost discount, in [0,1); 0 disables stickiness")
		shards     = flag.Int("shards", 0, "≥2: sharded per-epoch solves with per-shard warm state")
		aggr       = flag.Bool("aggregate", false, "fold viewers into weighted super-sinks before every solve")
		interval   = flag.Duration("interval", 0, "re-optimization cadence, timed from the end of each solve (0 = solve only under pressure or POST /solve)")
		pressure   = flag.Int("pressure", 64, "queued delta edits that force an immediate solve (negative disables)")
		snapPath   = flag.String("snapshot", "", "snapshot file: written on SIGTERM, POST /snapshot and every -snapshot-every solves")
		snapEvery  = flag.Int("snapshot-every", 0, "additionally snapshot after every n-th solve (0 = shutdown/POST only)")
		resume     = flag.Bool("resume", false, "resume warm from the -snapshot file when it exists")
		sloWindow  = flag.Int("slowindow", live.DefaultSLOWindow, "availability SLO sliding window, in epochs")
		sloTarget  = flag.Float64("slotarget", live.DefaultSLOTarget, "fraction of active sinks that must meet their threshold for an epoch to count as available")
	)
	flag.Parse()
	if (*instPath == "") == (*scenario == "") {
		usage("exactly one of -instance or -scenario must be given")
	}
	if *stickiness < 0 || *stickiness >= 1 {
		usage("-stickiness must be in [0,1), got %g", *stickiness)
	}
	if *sloWindow < 1 {
		usage("-slowindow must be ≥ 1, got %d", *sloWindow)
	}
	if !(*sloTarget > 0 && *sloTarget <= 1) {
		usage("-slotarget must be in (0,1], got %g", *sloTarget)
	}
	if *shards < 0 {
		usage("-shards must be ≥ 0, got %d", *shards)
	}
	if *interval < 0 {
		usage("-interval must be ≥ 0")
	}
	if *snapEvery < 0 {
		usage("-snapshot-every must be ≥ 0, got %d", *snapEvery)
	}
	if (*snapEvery > 0 || *resume) && *snapPath == "" {
		usage("-resume/-snapshot-every need -snapshot")
	}
	cfg := daemon.Config{
		Stickiness:    *stickiness,
		SolveInterval: *interval,
		Pressure:      *pressure,
		SLOWindow:     *sloWindow,
		SLOTarget:     *sloTarget,
		SnapshotPath:  *snapPath,
		SnapshotEvery: *snapEvery,
	}
	cfg.Solver.Seed = *seed
	cfg.Solver.Shards = *shards
	if *aggr {
		cfg.Solver.Aggregate = &agg.Config{}
	}

	// Boot order: a resumable snapshot wins (warm restart); otherwise the
	// instance file or the scenario's base topology (cold start, epoch 0
	// provisioned before the listener opens).
	var d *daemon.Daemon
	var err error
	switch {
	case *resume && fileExists(*snapPath):
		snap, lerr := daemon.LoadSnapshot(*snapPath)
		if lerr != nil {
			fatal(fmt.Errorf("resume: %w", lerr))
		}
		d, err = daemon.Resume(snap, cfg)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("resumed from %s at epoch %d (%d events, %d pending deltas)\n",
			*snapPath, d.Status().Epoch, d.Status().EventsLogged, d.Status().PendingDeltas)
	case *instPath != "":
		in, lerr := netmodel.LoadFile(*instPath)
		if lerr != nil {
			fatal(lerr)
		}
		d, err = daemon.New(in, cfg)
		if err != nil {
			fatal(err)
		}
	default:
		sc, serr := live.Make(*scenario, *seed, 1)
		if serr != nil {
			fatal(serr)
		}
		cfg.SinkRegion = sc.SinkRegion
		d, err = daemon.New(sc.Base, cfg)
		if err != nil {
			fatal(err)
		}
	}

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM, syscall.SIGINT)
	defer stop()

	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		fatal(err)
	}
	srv := obs.HTTPServer(d.Handler())
	httpErr := make(chan error, 1)
	go func() { httpErr <- srv.Serve(ln) }()
	st := d.Status()
	fmt.Printf("overlayd on http://%s — epoch %d, policy %s (POST /deltas, GET /placement, GET /status)\n",
		ln.Addr(), st.Epoch, st.Policy)

	// The solver loop owns the timeline; its exit (ctx cancel → final
	// snapshot, or a failed snapshot) tears the listener down. A failed
	// solve does not: the loop logs it, keeps serving the last published
	// view and reports not ok on /healthz until a solve succeeds.
	runErr := make(chan error, 1)
	go func() { runErr <- d.Run(ctx) }()

	select {
	case err := <-runErr:
		stop()
		shutCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = srv.Shutdown(shutCtx)
		if err != nil {
			fatal(err)
		}
		if *snapPath != "" {
			fmt.Printf("snapshot written to %s; restart with -resume to continue warm\n", *snapPath)
		}
		fmt.Println("overlayd: shut down cleanly")
	case err := <-httpErr:
		stop()
		if err != nil && !errors.Is(err, http.ErrServerClosed) {
			fatal(err)
		}
	}
}

func fileExists(path string) bool {
	_, err := os.Stat(path)
	return err == nil
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "overlayd: %v\n", err)
	os.Exit(1)
}

func usage(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "overlayd: "+format+"\n", args...)
	flag.Usage()
	os.Exit(2)
}
