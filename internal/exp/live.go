package exp

import (
	"fmt"

	"repro/internal/live"
	"repro/internal/stats"
)

// The L-series experiments exercise the live churn engine (internal/live):
// where the T-series validates the paper's static guarantees, the L-series
// validates the §1.3 monitoring loop — repeated incremental re-provisioning
// under timed churn — and quantifies what warm-started sticky re-solves buy
// over cold ones across whole timelines rather than a single re-solve.

// liveEpochs picks the timeline length: full runs use 40 epochs, quick runs
// 12 (enough for every scenario to fire its events at least once).
func liveEpochs(cfg Config) int {
	if cfg.Quick {
		return 12
	}
	return 40
}

// runPolicies drives one scenario under cold and warm+sticky and returns
// both reports.
func runPolicies(sc *live.Scenario) (cold, warm *live.RunReport, err error) {
	reps, err := live.ComparePolicies(sc,
		[]live.Policy{live.ColdPolicy(), live.WarmStickyPolicy()}, live.Config{})
	if err != nil {
		return nil, nil, err
	}
	return reps[0], reps[1], nil
}

// addPolicyRow renders one policy's totals as a table row.
func addPolicyRow(t *stats.Table, rep *live.RunReport) {
	t.AddRowf(rep.Policy.Name, len(rep.Epochs), rep.TotalPivots, rep.TotalArcChurn,
		rep.TotalReflectorChurn, rep.TotalTrueCost, yes(rep.AllAuditOK))
}

// L1FlashCrowd replays a flash-crowd timeline under both policies: the
// acceptance claim is that warm+sticky re-solves spend at least 3x fewer
// total simplex pivots than cold re-solves while every epoch still passes
// the paper's audit.
func L1FlashCrowd(cfg Config) *stats.Table {
	t := stats.NewTable("L1 — flash crowd: cold vs warm+sticky re-provisioning",
		"policy", "epochs", "Σpivots", "Σarc churn", "Σrefl churn", "Σcost", "all audits ok")
	epochs := liveEpochs(cfg)
	trials := cfg.trials(3)
	var worst float64
	for s := 0; s < trials; s++ {
		sc := live.FlashCrowd(cfg.seed(s), epochs)
		cold, warm, err := runPolicies(sc)
		if err != nil {
			t.AddNote("seed %d failed: %v", cfg.seed(s), err)
			continue
		}
		if s == 0 {
			addPolicyRow(t, cold)
			addPolicyRow(t, warm)
		}
		ratio := float64(cold.TotalPivots) / float64(warm.TotalPivots)
		if worst == 0 || ratio < worst {
			worst = ratio
		}
	}
	t.AddRow("speedup ok?", "", "", "", "", "", yes(worst >= 3))
	t.AddNote("worst pivot ratio cold/warm over %d seeds: %.1fx (claim: ≥3x)", trials, worst)
	return t
}

// L2DiurnalStickiness sweeps stickiness on a fixed diurnal timeline: churn
// must fall monotonically as stickiness grows, at a bounded cost premium.
func L2DiurnalStickiness(cfg Config) *stats.Table {
	t := stats.NewTable("L2 — diurnal wave: stickiness vs churn trade-off",
		"stickiness", "Σpivots", "Σarc churn", "Σrefl churn", "Σcost", "cost premium", "all audits ok")
	epochs := liveEpochs(cfg)
	sc := live.DiurnalWave(cfg.seed(0), epochs)
	var base float64
	prevChurn := -1
	monotone := true
	for _, s := range []float64{0, 0.2, 0.4, 0.6} {
		rep, err := live.Run(sc, live.Config{
			Policy: live.Policy{Name: fmt.Sprintf("s=%.1f", s), Stickiness: s, WarmStart: true}})
		if err != nil {
			t.AddNote("stickiness %.1f failed: %v", s, err)
			continue
		}
		if s == 0 {
			base = rep.TotalTrueCost
		}
		premium := "-"
		if base > 0 {
			premium = fmt.Sprintf("%+.1f%%", 100*(rep.TotalTrueCost/base-1))
		}
		t.AddRowf(s, rep.TotalPivots, rep.TotalArcChurn, rep.TotalReflectorChurn,
			rep.TotalTrueCost, premium, yes(rep.AllAuditOK))
		if prevChurn >= 0 && rep.TotalArcChurn > prevChurn {
			monotone = false
		}
		prevChurn = rep.TotalArcChurn
	}
	t.AddRow("churn monotone?", "", "", "", "", "", yes(monotone))
	t.AddNote("stickiness discounts deployed arcs' costs, trading re-solve optimality for viewer stability")
	return t
}

// L3RollingISPOutage drills availability: as each ISP fails and recovers,
// every epoch's design must keep the audit guarantee, and churn should
// concentrate at the failure/recovery epochs.
func L3RollingISPOutage(cfg Config) *stats.Table {
	t := stats.NewTable("L3 — rolling ISP outages: availability under failures",
		"policy", "epochs", "Σpivots", "Σarc churn", "min weight factor", "worst epoch", "all audits ok")
	epochs := liveEpochs(cfg)
	sc := live.RollingISPOutage(cfg.seed(0), epochs)
	for _, p := range []live.Policy{live.ColdPolicy(), live.WarmStickyPolicy()} {
		rep, err := live.Run(sc, live.Config{Policy: p})
		if err != nil {
			t.AddNote("policy %s failed: %v", p.Name, err)
			continue
		}
		minWF, worstEpoch := 0.0, -1
		for _, er := range rep.Epochs {
			if worstEpoch < 0 || er.WeightFactor < minWF {
				minWF, worstEpoch = er.WeightFactor, er.Epoch
			}
		}
		t.AddRowf(p.Name, len(rep.Epochs), rep.TotalPivots, rep.TotalArcChurn,
			minWF, worstEpoch, yes(rep.AllAuditOK))
	}
	t.AddNote("outage = fanout 0 on every reflector of the ISP; §6.4 colors cap copies per surviving ISP at 1")
	return t
}

// L4BackboneAndRepricing runs the two remaining scenario families —
// correlated backbone failure and gradual repricing — comparing how closely
// each policy tracks the LP lower bound through the incidents.
func L4BackboneAndRepricing(cfg Config) *stats.Table {
	t := stats.NewTable("L4 — backbone failure & gradual repricing: cost tracking through incidents",
		"scenario", "policy", "Σpivots", "Σarc churn", "Σcost", "Σcost/ΣLP", "all audits ok")
	epochs := liveEpochs(cfg)
	for _, name := range []string{"backbone", "repricing"} {
		sc, err := live.Make(name, cfg.seed(1), epochs)
		if err != nil {
			t.AddNote("%s: %v", name, err)
			continue
		}
		cold, warm, err := runPolicies(sc)
		if err != nil {
			t.AddNote("%s failed: %v", name, err)
			continue
		}
		// Ratio vs the COLD run's LP bound (the warm run's LP is biased).
		var lpSum float64
		for _, er := range cold.Epochs {
			lpSum += er.LPCost
		}
		for _, rep := range []*live.RunReport{cold, warm} {
			t.AddRowf(name, rep.Policy.Name, rep.TotalPivots, rep.TotalArcChurn,
				rep.TotalTrueCost, rep.TotalTrueCost/lpSum, yes(rep.AllAuditOK))
		}
	}
	t.AddNote("backbone incidents degrade every inter-region link at once (§1.4 correlated failure), with graceful quality degradation for remote-origin viewers")
	return t
}
