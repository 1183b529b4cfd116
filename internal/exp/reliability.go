package exp

import (
	"fmt"
	"math"
	"time"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/netmodel"
	"repro/internal/reliability"
	"repro/internal/sim"
	"repro/internal/stats"
)

// T5LossModel cross-validates the three views of stream quality the paper
// relies on: the closed-form product (§1.3), Monte-Carlo sampling of the
// same model, and the full packet-level simulation with reconstruction
// (§1.1) — across a redundancy curve of 1..5 serving reflectors.
func T5LossModel(cfg Config) *stats.Table {
	t := stats.NewTable("T5 — redundancy curve: post-reconstruction loss vs number of reflectors",
		"copies", "analytic", "Monte-Carlo", "packet sim (IID)", "packet sim (bursty)", "agree?")
	// One stream, identical hops at 5% loss each hop: per-path failure
	// ≈ 0.0975, so m copies ⇒ ≈ 0.0975^m.
	in := netmodel.NewZeroInstance(1, 5, 1)
	for i := 0; i < 5; i++ {
		in.ReflectorCost[i] = 1
		in.Fanout[i] = 10
		in.SrcRefLoss[0][i] = 0.05
		in.RefSinkLoss[i][0] = 0.05
		in.SrcRefCost[0][i] = 1
		in.RefSinkCost[i][0] = 1
	}
	in.Threshold[0] = 0.999
	packets := 400000
	mcTrials := 400000
	if cfg.Quick {
		packets, mcTrials = 60000, 60000
	}
	for copies := 1; copies <= 5; copies++ {
		d := netmodel.NewDesign(in)
		for i := 0; i < copies; i++ {
			d.Serve[i][0] = true
		}
		d.Normalize(in)
		analytic := reliability.SinkFailure(in, d, 0)
		mc := reliability.MonteCarloSinkFailure(in, d, 0, mcTrials, cfg.seed(copies))
		scfg := sim.DefaultConfig(cfg.seed(copies) + 7)
		scfg.Packets = packets
		scfg.DeadlineMs = 1e9
		iid := sim.Run(in, d, scfg).Sinks[0].PostLoss
		scfg.Model = sim.GilbertElliott
		ge := sim.Run(in, d, scfg).Sinks[0].PostLoss
		tol := 6*math.Sqrt(math.Max(analytic, 1e-7)/float64(packets)) + 5e-4
		agree := math.Abs(mc-analytic) <= tol && math.Abs(iid-analytic) <= tol
		t.AddRowf(copies, analytic, mc, iid, ge, yes(agree))
	}
	t.AddNote("per-path failure = p1+p2−p1p2 = %.4f; m copies multiply failures (§1.3)", in.PathFailure(0, 0))
	t.AddNote("bursty (Gilbert–Elliott) runs keep the same average loss per link; §1.3 allows within-link correlation")
	t.AddNote("MinReflectorsFor(0.0975, 0.999) = %d — the planning rule the redundancy curve justifies",
		reliability.MinReflectorsFor(in.PathFailure(0, 0), 0.999))
	return t
}

// T12ChernoffTails validates Theorem 4.2 / Appendix A: empirical tails of
// sums of independent [0,1] variables never exceed the stated bounds.
func T12ChernoffTails(cfg Config) *stats.Table {
	t := stats.NewTable("T12 — Hoeffding–Chernoff tails (Theorem 4.2): empirical vs bound",
		"n", "δ", "P(S≤(1−δ)µ) emp", "bound e^(−δ²µ/2)", "P(S≥(1+δ)µ) emp", "bound e^(−δ²µ/3)", "dominated?")
	trials := 200000
	if cfg.Quick {
		trials = 30000
	}
	for _, n := range []int{20, 60, 120} {
		for _, delta := range []float64{0.1, 0.25, 0.5} {
			mu := float64(n) / 2
			lo, hi := reliability.EmpiricalTail(n, delta, trials, cfg.seed(n*7+int(delta*100)))
			bl := reliability.HoeffdingChernoffLower(mu, delta)
			bh := reliability.HoeffdingChernoffUpper(mu, delta)
			t.AddRowf(n, delta, lo, bl, hi, bh, yes(lo <= bl+3e-3 && hi <= bh+3e-3))
		}
	}
	t.AddNote("S = sum of n i.i.d. U[0,1]; µ = n/2; %d trials per cell", trials)
	return t
}

// T7Scalability measures running time against LP size (§5.1: total running
// time equals solving an LP with O(|S||R||D|) variables and constraints).
func T7Scalability(cfg Config) *stats.Table {
	t := stats.NewTable("T7 — running-time scaling (§5.1: the LP solve dominates)",
		"S×R×D", "LP vars", "LP rows", "pivots", "LP time", "round time", "integralize time", "LP share")
	type size struct{ s, r, d int }
	sizes := []size{{1, 4, 8}, {2, 6, 12}, {2, 8, 20}, {3, 10, 28}, {3, 12, 40}, {4, 14, 60}}
	if cfg.Quick {
		sizes = []size{{1, 4, 8}, {2, 6, 12}}
	}
	for _, sz := range sizes {
		in := gen.Uniform(gen.DefaultUniform(sz.s, sz.r, sz.d), cfg.seed(sz.r*100+sz.d))
		start := time.Now()
		res, err := core.Solve(in, core.DefaultOptions(cfg.seed(3)))
		if err != nil {
			t.AddRow(fmt.Sprintf("%d×%d×%d", sz.s, sz.r, sz.d), "-", "-", "-", "-", "-", "-", "-")
			continue
		}
		total := time.Since(start)
		lpWall := res.StageWall("lp-build", "lp-solve")
		share := float64(lpWall) / float64(total) * 100
		t.AddRowf(fmt.Sprintf("%d×%d×%d", sz.s, sz.r, sz.d),
			res.LPVars, res.LPRows, res.LPPivots,
			lpWall.Round(time.Microsecond).String(),
			res.StageWall("round").Round(time.Microsecond).String(),
			res.StageWall("integralize", "repair").Round(time.Microsecond).String(),
			fmt.Sprintf("%.0f%%", share))
	}
	t.AddNote("round and integralize times sum over the audit attempts")
	t.AddNote("the LP has Θ(R·D) variables here because each split sink demands one commodity (§2 WLOG)")
	t.AddNote("solved by the sparse revised simplex (CSC columns, eta-file basis inverse, ≈2.5× the")
	t.AddNote("dense tableau on 2×8×20); §5.1's conclusion (deployable, LP-bound) holds throughout")
	return t
}

// T9LiveEvent reproduces the §1 capacity-planning arithmetic of the
// MacWorld'02 keynote and then designs + packet-simulates the overlay.
func T9LiveEvent(cfg Config) *stats.Table {
	mw := gen.DefaultMacWorld()
	t := stats.NewTable("T9 — MacWorld'02-class live event (§1 motivation)",
		"quantity", "value", "paper reference")
	viewers := mw.EdgeServers * mw.ViewersPerSink
	aggGbps := float64(viewers) * mw.StreamKbps / 1e6
	serversNeeded := int(math.Ceil(aggGbps * 1000 / 50))
	t.AddRowf("simultaneous viewers", viewers, "~50,000 (Jan 2002 keynote)")
	t.AddRowf("aggregate egress (Gbps)", aggGbps, "16.5 Gbps peak in the paper's event")
	t.AddRowf("50 Mbps media servers needed", serversNeeded, "\"hundreds of servers\" (§1)")

	in := gen.MacWorld(mw, cfg.seed(2))
	res, err := core.Solve(in, core.DefaultOptions(cfg.seed(4)))
	if err != nil {
		t.AddNote("solve failed: %v", err)
		return t
	}
	ropts := core.DefaultOptions(cfg.seed(4))
	ropts.RepairCoverage = true
	deployed, err := core.Solve(in, ropts)
	if err != nil {
		t.AddNote("repair solve failed: %v", err)
		return t
	}
	built := 0
	for _, b := range deployed.Design.Build {
		if b {
			built++
		}
	}
	t.AddRowf("reflectors built / available", fmt.Sprintf("%d/%d", built, in.NumReflectors), "middle-mile overlay (§1.1)")
	t.AddRowf("raw design: cost/LP, Φ met", fmt.Sprintf("%.3f, %d/%d", res.ApproxRatio(), res.Audit.MetDemand, res.Audit.Sinks), "paper guarantee: weight ≥ W/4")
	t.AddRowf("deployed (repaired): cost/LP, Φ met", fmt.Sprintf("%.3f, %d/%d", deployed.ApproxRatio(), deployed.Audit.MetDemand, deployed.Audit.Sinks), "§7 heuristic tops up to full Φ")

	scfg := sim.DefaultConfig(cfg.seed(6))
	scfg.Packets = 120000
	if cfg.Quick {
		scfg.Packets = 20000
	}
	simRes := sim.Run(in, deployed.Design, scfg)
	t.AddRowf("edgeservers meeting Φ (packet sim)", fmt.Sprintf("%d/%d", simRes.MeetCount, simRes.DemandingSinks), "reconstruction of §1.1")
	t.AddRowf("mean post-reconstruction loss", simRes.MeanPostLoss, "loss threshold model (§1.2)")
	t.AddRowf("worst-sink post-reconstruction loss", simRes.WorstPostLoss, "quality goal Φ=99.9% ⇒ ≤ 0.001")
	return t
}
