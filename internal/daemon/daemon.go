// Package daemon is the long-running provisioning service over the live
// re-optimization engine: overlayd. Where internal/live replays a fixed
// scenario to completion, the daemon runs an open-ended timeline — Deltas
// arrive continuously over HTTP, accumulate in a queue, and a solver loop
// consumes them on a cadence (or immediately, when queued churn crosses a
// pressure threshold), re-provisioning the overlay exactly the way §1.3's
// monitoring loop prescribes.
//
// A solve is one step of the live engine (live.Engine), the same epoch
// step overlaylive runs: the queued deltas are applied through it, it
// re-solves, certifies, tracks the SLO and feeds the per-epoch metric
// families, and the daemon publishes the epoch report it returns. So
// /status's last report and POST /solve's response are live.EpochReports,
// and a replay of the exported event log through live.Run reproduces them.
//
// The state split is the whole design:
//
//   - WRITE state (the engine with its instance, session and SLO tracker;
//     the delta queue; the event log) lives behind one mutex and is touched
//     only by ingest and the solver;
//   - READ state is an immutable View published by atomic pointer swap
//     after every solve — placement lookups, /design and /status never
//     take the lock, so reads keep serving at full speed while a solve
//     runs.
//
// Everything the daemon has ingested is kept as a replayable event log
// (GET /scenario returns it in live.Scenario form, ready for overlaylive
// -replay), and the full control state — instance, deployed design, simplex
// basis factorization, aggregation partition, unsolved deltas — snapshots
// to disk so a restarted daemon resumes warm: the first post-restart epoch
// adopts the persisted basis (Forrest–Tomlin resume) instead of
// refactorizing cold.
package daemon

import (
	"context"
	"errors"
	"fmt"
	"log"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/live"
	"repro/internal/netmodel"
	"repro/internal/obs"
)

// Config parameterizes a daemon. The zero value of every knob has a usable
// default; only the instance (passed to New/Resume) is mandatory.
type Config struct {
	// Solver configures each epoch's solve (core.DefaultOptions(seed) if
	// zero-valued). Every solve warm-starts from the previous epoch's basis
	// and patches the LP in place, as live.Run does; Stickiness is the
	// deployed-design cost discount, as in live.Policy.
	Solver     core.Options
	Stickiness float64

	// SolveInterval is the re-optimization cadence, timed from the end of
	// each solve (see Run); 0 disables the timer (solves then happen only
	// under pressure, via POST /solve, or not at all — tests drive the loop
	// manually).
	SolveInterval time.Duration
	// Pressure forces an immediate solve once this many atomic delta edits
	// are queued; 0 means 64. Negative disables pressure solves.
	Pressure int

	// SLOWindow / SLOTarget parameterize the availability tracker feeding
	// /slo (defaults 8 and 0.5, as in live.Config).
	SLOWindow int
	SLOTarget float64
	// SinkRegion optionally maps demand units to topology regions for the
	// per-region SLO breakdown (the per-stream breakdown needs no map).
	SinkRegion []int

	// SnapshotPath, when set, is where Save/periodic/shutdown snapshots go.
	// SnapshotEvery > 0 additionally snapshots after every n-th solve.
	SnapshotPath  string
	SnapshotEvery int

	// Obs receives the engine's and the solver's observability signals
	// (one trace span per solve, the per-epoch and solver metric families);
	// its registry backs the mounted /metrics endpoint. Nil gets a fresh
	// registry, so /metrics always serves.
	Obs *obs.Observer
}

func (c *Config) defaults() {
	if c.Solver.Seed == 0 {
		c.Solver.Seed = 1
	}
	if c.Pressure == 0 {
		c.Pressure = 64
	}
}

// EpochInfo is one solve's report: the /status payload's last and POST
// /solve's response. It is the live engine's epoch report; all fields are
// deterministic in the ingest history except the wall-clock ones (WallNS,
// StageWallNS).
type EpochInfo = live.EpochReport

// Totals accumulate across the daemon's lifetime (reset by a restore —
// they are monitoring state, not control state).
type Totals struct {
	Solves           int `json:"solves"`
	Edits            int `json:"edits"`
	Pivots           int `json:"pivots"`
	FTUpdates        int `json:"ft_updates"`
	Refactorizations int `json:"refactorizations"`
	SLOBreaches      int `json:"slo_breaches"`
	// FailedSolves counts solve steps that failed; the daemon kept serving
	// its last published view through each (see Run).
	FailedSolves int `json:"failed_solves"`
}

// View is the immutable published read state: everything a placement or
// design lookup needs, swapped in atomically after each solve (and once at
// construction/restore). Readers must not mutate it.
type View struct {
	// Epoch is the index of the last solved epoch (session steps - 1).
	Epoch int
	// In is a snapshot of the instance the design was solved against;
	// Design the deployed design; Audit its certificate on In.
	In     *netmodel.Instance
	Design *netmodel.Design
	Audit  netmodel.Audit
	// Last summarizes the solve that produced this view (zero-valued for
	// the view published by a restore, which re-serves the persisted
	// design without solving).
	Last EpochInfo
}

// Daemon is the service state. Construct with New or Resume, serve
// Handler(), and drive the solver loop with Run (or SolveNow in tests).
type Daemon struct {
	cfg Config
	srv *obs.Server

	mu        sync.Mutex
	in        *netmodel.Instance
	base      *netmodel.Instance
	sess      *core.Session
	eng       *live.Engine
	queue     []netmodel.Delta
	qEdits    int
	events    []live.Event
	totals    Totals
	health    obs.HealthStatus // /healthz of the published view (see setHealth)
	sinceSnap int
	start     time.Time

	view atomic.Pointer[View]
	kick chan struct{}
}

// New builds a daemon over a clone of in and performs the initial
// provisioning solve (epoch 0), so placement lookups work the moment the
// listener is up.
func New(in *netmodel.Instance, cfg Config) (*Daemon, error) {
	if in == nil {
		return nil, fmt.Errorf("daemon: nil instance")
	}
	if err := in.Validate(); err != nil {
		return nil, fmt.Errorf("daemon: %w", err)
	}
	cfg.defaults()
	in = in.Clone()
	d := newDaemon(in, in.Clone(), core.NewSession(cfg.Solver, cfg.Stickiness, true), cfg)
	if _, err := d.SolveNow(); err != nil {
		return nil, fmt.Errorf("daemon: initial provisioning: %w", err)
	}
	return d, nil
}

// Resume rebuilds a daemon from a snapshot: the session resumes at its
// persisted step counter with the persisted deployment, basis
// factorization and aggregation partition; unsolved deltas re-queue; and
// the pre-restart placement view is re-published verbatim (same design,
// same instance), so lookups across the restart are byte-identical. The
// SLO window and lifetime totals restart — they are monitoring state.
func Resume(snap *Snapshot, cfg Config) (*Daemon, error) {
	if err := snap.Validate(); err != nil {
		return nil, err
	}
	cfg.defaults()
	in := snap.Instance.Clone()
	sess, err := core.RestoreSession(in, cfg.Solver, cfg.Stickiness, true, snap.Session)
	if err != nil {
		return nil, fmt.Errorf("daemon: resume: %w", err)
	}
	d := newDaemon(in, snap.Base.Clone(), sess, cfg)
	d.events = append(d.events, snap.Events...)
	for _, del := range snap.Pending {
		d.queue = append(d.queue, del)
		d.qEdits += del.Size()
	}
	if dep := sess.Deployed(); dep != nil {
		audit := netmodel.AuditDesign(d.in, dep)
		d.publishLocked(dep, audit, EpochInfo{Epoch: sess.Steps() - 1})
		// The resumed daemon is healthy before its first solve: it serves
		// the persisted design. (The full guarantee predicate needs the
		// rounding variant, which only the next solve knows; structure is
		// what a re-audit of a deployed design can certify.)
		d.setHealth(obs.HealthStatus{
			OK: audit.StructureOK, Running: true,
			Scenario: d.base.Name, Policy: policyName(d.cfg),
			Epoch: sess.Steps() - 1, Epochs: sess.Steps(),
			AuditOK: audit.StructureOK,
		})
	} else if _, err := d.SolveNow(); err != nil {
		// A never-stepped snapshot restores to a fresh daemon: provision.
		return nil, fmt.Errorf("daemon: resume provisioning: %w", err)
	}
	return d, nil
}

// newDaemon wires a daemon around its engine. in is the live instance the
// engine mutates and sess the session that solves it; base roots the event
// log.
func newDaemon(in, base *netmodel.Instance, sess *core.Session, cfg Config) *Daemon {
	d := &Daemon{
		cfg:   cfg,
		in:    in,
		base:  base,
		sess:  sess,
		kick:  make(chan struct{}, 1),
		start: time.Now(),
	}
	// One registry backs everything: the mounted /metrics endpoint, the
	// engine's epoch/churn/SLO families, and the solver stack (the session's
	// observer records pivots, factorization events and patch counters into
	// the same families live.Run would).
	reg := cfg.Obs.Registry()
	if reg == nil {
		reg = obs.NewRegistry()
		d.cfg.Obs = &obs.Observer{Reg: reg}
	}
	d.eng = live.NewEngine(in, sess, cfg.SinkRegion, cfg.SLOWindow, cfg.SLOTarget, d.cfg.Obs)
	d.srv = obs.NewServer(reg)
	return d
}

// View returns the published read state (never nil after New/Resume).
func (d *Daemon) View() *View { return d.view.Load() }

// Ingest validates the deltas against the live instance and queues them
// for the next solve, tagging each with the epoch that will consume it (so
// the event log replays exactly). Returns the number of atomic edits
// queued in total (including previously queued ones) and the tagged epoch.
// On a validation error nothing is queued — a batch is all-or-nothing.
func (d *Daemon) Ingest(deltas []netmodel.Delta) (queuedEdits, epoch int, err error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	for i := range deltas {
		if err := deltas[i].Validate(d.in); err != nil {
			return d.qEdits, d.sess.Steps(), err
		}
	}
	epoch = d.sess.Steps()
	for _, del := range deltas {
		d.queue = append(d.queue, del)
		d.qEdits += del.Size()
		d.events = append(d.events, live.Event{Epoch: epoch, Delta: del})
	}
	if d.cfg.Pressure > 0 && d.qEdits >= d.cfg.Pressure {
		select {
		case d.kick <- struct{}{}:
		default:
		}
	}
	return d.qEdits, epoch, nil
}

// SolveNow drains the queue and re-optimizes immediately (the POST /solve
// path; the solver loop and the pressure trigger funnel here too).
func (d *Daemon) SolveNow() (EpochInfo, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.solveLocked()
}

// solveFailure is a failed solve step, which Run survives.
type solveFailure struct{ error }

// solveLocked is one engine step: apply the queue, step, publish. A step
// that fails publishes nothing: readers keep the last view, the failure is
// counted, and /healthz reports not ok until a solve succeeds.
func (d *Daemon) solveLocked() (EpochInfo, error) {
	info, res, err := d.stepLocked()
	if err != nil {
		d.totals.FailedSolves++
		h := d.health
		h.OK = false
		d.srv.SetHealth(h)
		return EpochInfo{}, solveFailure{err}
	}
	slo := d.eng.SLO()
	d.totals.Solves++
	d.totals.Edits += info.Edits
	d.totals.Pivots += info.Pivots
	d.totals.FTUpdates += info.FTUpdates
	d.totals.Refactorizations += info.Refactorizations
	d.totals.SLOBreaches = slo.Breaches()

	d.publishLocked(res.Design, res.Audit, info)
	d.setHealth(obs.HealthStatus{
		OK: info.AuditOK, Running: true,
		Scenario: d.base.Name, Policy: policyName(d.cfg),
		Epoch: info.Epoch, Epochs: info.Epoch + 1,
		AuditOK: info.AuditOK, SLOOk: info.SLOOk,
	})
	d.srv.SetSLO(obs.SLOStatus{
		Window: slo.Window, Target: slo.Target,
		Ok: info.SLOOk, WindowFrac: info.SLOWindowFrac,
		Breaches: slo.Breaches(), MinWindowFrac: slo.MinWindowFrac(),
		Regions: info.Regions, Streams: info.Streams,
	})

	if d.cfg.SnapshotPath != "" && d.cfg.SnapshotEvery > 0 {
		d.sinceSnap++
		if d.sinceSnap >= d.cfg.SnapshotEvery {
			d.sinceSnap = 0
			if err := d.saveSnapshotLocked(d.cfg.SnapshotPath); err != nil {
				return info, fmt.Errorf("daemon: periodic snapshot: %w", err)
			}
		}
	}
	return info, nil
}

// stepLocked applies the queued deltas to the engine and steps it.
func (d *Daemon) stepLocked() (EpochInfo, *core.ReoptimizeResult, error) {
	for i := range d.queue {
		if err := d.eng.Apply(d.queue[i]); err != nil {
			// Cannot happen for a queue validated at ingest (deltas never
			// resize and validation is state-independent), but a corrupted
			// snapshot could smuggle one in — fail the solve, keep serving.
			return EpochInfo{}, nil, fmt.Errorf("daemon: applying queued delta %q: %w", d.queue[i].Note, err)
		}
	}
	d.queue = d.queue[:0]
	d.qEdits = 0
	info, res, err := d.eng.Step()
	if err != nil {
		return EpochInfo{}, nil, fmt.Errorf("daemon: %w", err)
	}
	return info, res, nil
}

// setHealth records h as the /healthz state of the published view and
// serves it.
func (d *Daemon) setHealth(h obs.HealthStatus) {
	d.health = h
	d.srv.SetHealth(h)
}

// publishLocked swaps in a fresh immutable view. The design is cloned (the
// session keeps mutating its copy through stickiness diffs), the instance
// snapshotted — readers own the view forever.
func (d *Daemon) publishLocked(design *netmodel.Design, audit netmodel.Audit, info EpochInfo) {
	d.view.Store(&View{
		Epoch:  info.Epoch,
		In:     d.in.Clone(),
		Design: design.Clone(),
		Audit:  audit,
		Last:   info,
	})
}

func policyName(cfg Config) string {
	return fmt.Sprintf("warm+sticky(%.2f)", cfg.Stickiness)
}

// Run drives the solver loop until ctx is cancelled: a cadence timer
// (Config.SolveInterval) and the pressure trigger both funnel into
// SolveNow. On shutdown a final snapshot is written when a path is
// configured, so a SIGTERM'd daemon always restarts warm.
//
// A failed solve step (an infeasible LP after an accepted delta, or a
// solver failure) does not end the loop: Run logs it to stderr and waits
// for the next trigger, while the daemon keeps serving the view it last
// published, counts the failure in Totals.FailedSolves and reports not ok
// on /healthz until a solve succeeds. The failed epoch's deltas stay
// applied, so the next delta can repair the instance. A failed snapshot
// still ends the loop with its error.
//
// The cadence is a fixed delay, not a fixed rate: the timer restarts when
// the loop's solve ends, so a full interval without a loop solve follows
// every loop solve, and a solve that overruns the interval is not chased
// by a back-to-back one. The solve schedule then also drifts against
// clients that send on a period dividing the interval instead of locking
// in phase with them, which would pin every delta's wait for its epoch
// to that one phase.
func (d *Daemon) Run(ctx context.Context) error {
	var tick <-chan time.Time
	var t *time.Timer
	if d.cfg.SolveInterval > 0 {
		t = time.NewTimer(d.cfg.SolveInterval)
		defer t.Stop()
		tick = t.C
	}
	for {
		select {
		case <-ctx.Done():
			if d.cfg.SnapshotPath != "" {
				if err := d.SaveSnapshot(d.cfg.SnapshotPath); err != nil {
					return fmt.Errorf("daemon: shutdown snapshot: %w", err)
				}
			}
			return nil
		case <-d.kick:
		case <-tick:
		}
		if _, err := d.SolveNow(); err != nil {
			if !errors.As(err, new(solveFailure)) {
				return err
			}
			log.Printf("overlayd: %v (still serving epoch %d)", err, d.View().Epoch)
		}
		if t != nil {
			t.Reset(d.cfg.SolveInterval)
		}
	}
}

// Scenario exports the full ingest history as a replayable live.Scenario:
// the instance the daemon booted from (or was restored with, verbatim from
// the snapshot's base) plus every delta ever ingested, epoch-tagged. The
// export validates, so overlaylive -replay accepts it as-is.
func (d *Daemon) Scenario() (*live.Scenario, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	epochs := d.sess.Steps()
	for _, ev := range d.events {
		if ev.Epoch+1 > epochs {
			epochs = ev.Epoch + 1
		}
	}
	if epochs == 0 {
		epochs = 1
	}
	sc := &live.Scenario{
		Name:       "overlayd",
		Seed:       d.cfg.Solver.Seed,
		Epochs:     epochs,
		Events:     append([]live.Event(nil), d.events...),
		Base:       d.base.Clone(),
		SinkRegion: append([]int(nil), d.cfg.SinkRegion...),
	}
	if err := sc.Validate(); err != nil {
		return nil, fmt.Errorf("daemon: exported scenario invalid: %w", err)
	}
	return sc, nil
}

// Status is the /status payload.
type Status struct {
	Epoch int `json:"epoch"`
	// PendingDeltas/PendingEdits describe the unsolved queue.
	PendingDeltas int    `json:"pending_deltas"`
	PendingEdits  int    `json:"pending_edits"`
	EventsLogged  int    `json:"events_logged"`
	Policy        string `json:"policy"`
	Totals        Totals `json:"totals"`
	// Last is the most recent solve's epoch report (zero Epoch with Solves==0
	// only right after a restore, which publishes without solving).
	Last          EpochInfo `json:"last"`
	SnapshotPath  string    `json:"snapshot_path,omitempty"`
	UptimeSeconds float64   `json:"uptime_seconds"`
}

// Status reports the daemon's control-plane state.
func (d *Daemon) Status() Status {
	d.mu.Lock()
	defer d.mu.Unlock()
	st := Status{
		Epoch:         d.sess.Steps() - 1,
		PendingDeltas: len(d.queue),
		PendingEdits:  d.qEdits,
		EventsLogged:  len(d.events),
		Policy:        policyName(d.cfg),
		Totals:        d.totals,
		SnapshotPath:  d.cfg.SnapshotPath,
		UptimeSeconds: time.Since(d.start).Seconds(),
	}
	if v := d.View(); v != nil {
		st.Last = v.Last
	}
	return st
}
