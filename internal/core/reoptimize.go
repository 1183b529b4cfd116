package core

import (
	"fmt"

	"repro/internal/netmodel"
)

// ReoptimizeResult reports a churn-aware re-solve.
type ReoptimizeResult struct {
	*Result
	// ArcChurn counts service arcs that differ from the prior design;
	// ReflectorChurn counts reflectors whose build state flipped. Every
	// changed arc is a viewer-visible stream re-pull, so operators
	// minimize churn alongside cost.
	ArcChurn, ReflectorChurn int
	// StreamChurn counts demand units (subscriptions) whose serving
	// reflector set changed; ViewerChurn weights those switches by the
	// real sink behind them — a 3-stream sink re-pulling one stream adds
	// 1/3, not 1 (netmodel.Churn). On single-stream instances
	// ViewerChurn is the number of sinks whose service moved.
	StreamChurn int
	ViewerChurn float64
}

// reoptimized wraps res, a re-solve deployed after prior (nil: none), with
// its churn against prior counted on the true instance in.
func reoptimized(in *netmodel.Instance, prior *netmodel.Design, res *Result) *ReoptimizeResult {
	out := &ReoptimizeResult{Result: res}
	if prior != nil {
		c := netmodel.DesignChurn(in, prior, res.Design)
		out.ArcChurn, out.ReflectorChurn = c.Arcs, c.Reflectors
		out.StreamChurn, out.ViewerChurn = c.Streams, c.Viewers
	}
	return out
}

// Reoptimize runs the solver on an updated instance (new measured losses or
// prices, §1.3's monitoring loop) while biasing toward the previously
// deployed design: arcs and reflectors already in service get their costs
// discounted by stickiness ∈ [0,1), so the LP prefers keeping streams where
// they are unless the network has genuinely shifted. stickiness = 0
// reproduces a cold solve; values around 0.3–0.5 are typical.
//
// Reoptimize itself solves cold. Because only costs change between the
// deployed solve and the re-solve, the prior solve's simplex basis stays
// primal feasible for the new LP: a Session, which carries that basis from
// Step to Step, restarts phase 2 from it instead of from scratch, and churn
// re-solves then cost a handful of pivots.
//
// The returned audit and cost are evaluated against the TRUE (undiscounted)
// instance — the bias only steers the optimization.
//
// stickiness outside [0,1) is an error: 1 would zero the costs of the prior
// design (freezing it regardless of how the network moved) and negative
// values would penalize it, neither of which is a meaningful bias.
func Reoptimize(in *netmodel.Instance, prior *netmodel.Design, stickiness float64, opts Options) (*ReoptimizeResult, error) {
	res, onClone, err := reoptimize(in, prior, stickiness, opts, nil)
	if err != nil {
		return nil, err
	}
	if onClone {
		// Re-audit against the true instance (costs were biased).
		res.Audit = netmodel.AuditDesign(in, res.Design)
	}
	return reoptimized(in, prior, res), nil
}

// reoptimize range-checks stickiness, biases in toward prior and solves it,
// with the carried state of a Session's solve (nil for a one-shot re-solve).
// onClone reports that it solved a biased clone, whose audit a caller that
// wants the true one must redo on in; the LP cost is the solved LP's bound.
func reoptimize(in *netmodel.Instance, prior *netmodel.Design, stickiness float64, opts Options, c *carry) (res *Result, onClone bool, err error) {
	if stickiness < 0 || stickiness >= 1 {
		return nil, false, fmt.Errorf("core: stickiness %g outside [0,1)", stickiness)
	}
	work := biased(in, prior, stickiness)
	res, err = solve(work, opts, c)
	return res, work != in, err
}

// biased returns in with the costs of prior's reflectors, ingests and
// service arcs discounted by stickiness: a clone, or in itself when there is
// nothing to discount.
func biased(in *netmodel.Instance, prior *netmodel.Design, stickiness float64) *netmodel.Instance {
	if prior == nil || stickiness <= 0 {
		return in
	}
	work := in.Clone()
	keep := 1 - stickiness
	for i := range prior.Serve {
		if prior.Build[i] {
			work.ReflectorCost[i] *= keep
		}
		for j, s := range prior.Serve[i] {
			if s {
				work.RefSinkCost[i][j] *= keep
			}
		}
	}
	for k := range prior.Ingest {
		for i, y := range prior.Ingest[k] {
			if y {
				work.SrcRefCost[k][i] *= keep
			}
		}
	}
	return work
}
