package core

import (
	"fmt"

	"repro/internal/agg"
	"repro/internal/lp"
	"repro/internal/netmodel"
)

// SessionState is the serializable checkpoint of a Session: everything a
// restarted process needs to resume the re-solve loop warm. The instance
// itself is NOT part of the state — the caller persists it separately
// (netmodel's JSON codec) and hands the restored copy to RestoreSession,
// which rebuilds every live structure against it:
//
//   - the deployed design(s) restore verbatim;
//   - the aggregation plane restores from its membership partition alone
//     (all summaries are recomputed against the restored instance);
//   - the LP basis rebinds to the Patcher's Problem, rebuilt
//     deterministically from the restored instance — the Patcher's
//     golden-locked contract is that its patched Problem stays semantically
//     identical to a fresh Build, so a fresh Build IS the matrix the
//     factorization was taken from, and the first post-restore warm start
//     adopts it Forrest–Tomlin-style exactly like an uninterrupted epoch
//     would (lp.SolveStats.FTUpdates fires);
//   - the stickiness bias is deliberately absent: a restored session starts
//     with no bias history, and the first Step's DiffDesigns(nil, prior)
//     re-patches exactly the deployed design's discounted cells, restoring
//     the biased objective value-for-value.
//
// Neither the sharded solve state (the shard.State and the per-shard
// carries) nor the carried §6.5 path LP (stround.State) is checkpointed. A
// restored session's first path LP solves cold; a cold and a carried path
// LP reach the same optimum, so a restored monolithic timeline still
// deploys what the uninterrupted one does (the round-trip tests lock it). A
// restored sharded session re-partitions, re-splits capacity from affinity
// and rebuilds each shard LP once, cold: its designs can part from the
// uninterrupted session's, and every epoch still passes the audit
// (TestShardedSessionSnapshotRoundTrip).
type SessionState struct {
	Steps    int              `json:"steps"`
	Prior    *netmodel.Design `json:"prior,omitempty"`
	Basis    *lp.BasisData    `json:"basis,omitempty"`
	Agg      *agg.StateData   `json:"agg,omitempty"`
	AggPrior *netmodel.Design `json:"agg_prior,omitempty"`
}

// ExportState captures the session's resumable state. The export is a deep
// copy: the session may keep stepping while the caller serializes it.
// Pending dirty sets reported via Observe but not yet consumed by a Step are
// NOT part of the export — the caller owns the un-stepped mutations and
// replays them against the restored instance (the daemon re-queues its
// unapplied deltas for exactly this reason).
func (s *Session) ExportState() *SessionState {
	st := &SessionState{
		Steps: s.steps,
		Basis: s.carried.basis.Export(),
		Agg:   s.agg.fold.Export(),
	}
	if s.prior != nil {
		st.Prior = s.prior.Clone()
	}
	if s.agg.prior != nil {
		st.AggPrior = s.agg.prior.Clone()
	}
	return st
}

// checkDesignShape validates that d is shaped for in.
func checkDesignShape(what string, in *netmodel.Instance, d *netmodel.Design) error {
	S, R, D := in.Dims()
	if len(d.Build) != R || len(d.Ingest) != S || len(d.Serve) != R {
		return fmt.Errorf("core: restore: %s design shaped (%d,%d,%d), instance wants (%d,%d,%d)",
			what, len(d.Ingest), len(d.Build), len(d.Serve), S, R, R)
	}
	for k := range d.Ingest {
		if len(d.Ingest[k]) != R {
			return fmt.Errorf("core: restore: %s design ingest[%d] has %d reflectors, want %d", what, k, len(d.Ingest[k]), R)
		}
	}
	for i := range d.Serve {
		if len(d.Serve[i]) != D {
			return fmt.Errorf("core: restore: %s design serve[%d] has %d units, want %d", what, i, len(d.Serve[i]), D)
		}
	}
	return nil
}

// RestoreSession rebuilds a Session from a checkpoint against the restored
// instance. opts/stickiness/warmStart are the caller's configuration, exactly
// as they would be passed to NewSession — they are not part of the
// checkpoint, so a restarted daemon may change tuning knobs across the
// restart (a basis is only rebound when the configuration can use it:
// warm-started, unsharded).
//
// The restored session's next Step continues the timeline: the per-epoch
// rounding seed derives from the restored step counter, the warm start
// adopts the restored factorization, and the stickiness bias re-derives from
// the restored deployment — so an unchanged configuration replays the
// uninterrupted session's epochs bit-for-bit (locked by the live-package
// round-trip tests).
func RestoreSession(in *netmodel.Instance, opts Options, stickiness float64, warmStart bool, st *SessionState) (*Session, error) {
	if st == nil {
		return nil, fmt.Errorf("core: restore: nil session state")
	}
	if st.Steps < 0 {
		return nil, fmt.Errorf("core: restore: negative step counter %d", st.Steps)
	}
	s := NewSession(opts, stickiness, warmStart)
	s.steps = st.Steps

	plane := in
	if s.opts.Aggregate != nil {
		if st.Agg == nil {
			if st.Steps > 0 {
				return nil, fmt.Errorf("core: restore: aggregated session with %d steps has no aggregation state", st.Steps)
			}
			// Never stepped: the first Step builds the fold lazily, as a
			// fresh session would.
		} else {
			ast, err := agg.Restore(in, st.Agg)
			if err != nil {
				return nil, fmt.Errorf("core: restore: %w", err)
			}
			s.agg.fold = ast
			plane = ast.Agg
			if st.AggPrior != nil {
				if err := checkDesignShape("aggregate", ast.Agg, st.AggPrior); err != nil {
					return nil, err
				}
				s.agg.prior = st.AggPrior.Clone()
			}
		}
	} else if st.Agg != nil || st.AggPrior != nil {
		return nil, fmt.Errorf("core: restore: checkpoint carries aggregation state but Options.Aggregate is nil")
	}

	if st.Prior != nil {
		if err := checkDesignShape("deployed", in, st.Prior); err != nil {
			return nil, err
		}
		s.prior = st.Prior.Clone()
	}

	if st.Basis != nil && warmStart && s.carried.patcher != nil {
		// Rebuild the persistent Problem the session will keep patching and
		// bind the factorization to it, so the next Step's install adopts it
		// as an uninterrupted epoch would.
		p, _, _ := s.carried.patcher.Sync(plane, lpOptions(plane, s.opts, true), nil)
		b, err := lp.RestoreBasis(p, st.Basis)
		if err != nil {
			return nil, err
		}
		s.carried.basis = b
	}
	// s.lastBias stays nil: see the SessionState contract above.
	return s, nil
}
