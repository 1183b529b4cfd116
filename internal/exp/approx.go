package exp

import (
	"fmt"
	"math"

	"repro/internal/bnb"
	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/greedy"
	"repro/internal/lpmodel"
	"repro/internal/netmodel"
	"repro/internal/par"
	"repro/internal/round"
	"repro/internal/stats"
)

// T1EndToEndApprox measures the end-to-end algorithm against the exact IP
// optimum on tiny instances: cost ratio, weight retention factor (paper
// bound: ≥ 1/4), fanout factor (paper bound: ≤ 4).
func T1EndToEndApprox(cfg Config) *stats.Table {
	t := stats.NewTable("T1 — End-to-end approximation vs exact OPT (paper §5: weight ≥ W/4, fanout ≤ 4F, cost O(log n)·OPT)",
		"family", "trials", "cost/OPT mean", "cost/OPT max", "cost/LP mean", "minWeightFac", "maxFanoutFac", "all ≥ 1/4?", "all ≤ 4?")
	type family struct {
		name string
		mk   func(seed uint64) *netmodel.Instance
	}
	fams := []family{
		{"uniform 1×5×7", func(s uint64) *netmodel.Instance { return gen.Uniform(gen.DefaultUniform(1, 5, 7), s) }},
		{"uniform 2×5×6", func(s uint64) *netmodel.Instance { return gen.Uniform(gen.DefaultUniform(2, 5, 6), s) }},
		{"setcover 8×5", func(s uint64) *netmodel.Instance {
			return gen.SetCover(gen.SetCoverConfig{Elements: 8, Sets: 5, Density: 0.4}, s)
		}},
	}
	if cfg.Quick {
		fams = []family{
			{"uniform 1×4×5", func(s uint64) *netmodel.Instance { return gen.Uniform(gen.DefaultUniform(1, 4, 5), s) }},
			{"setcover 6×4", func(s uint64) *netmodel.Instance {
				return gen.SetCover(gen.SetCoverConfig{Elements: 6, Sets: 4, Density: 0.4}, s)
			}},
		}
	}
	trials := cfg.trials(8)
	for _, fam := range fams {
		type outcome struct {
			ratioOPT, ratioLP, wf, ff float64
			ok                        bool
		}
		outs := par.Map(trials, 0, func(ti int) outcome {
			in := fam.mk(cfg.seed(ti))
			// Prime the incumbent with the greedy cost when greedy
			// fully covers — a valid upper bound that prunes hard.
			bOpts := bnb.Options{NodeLimit: 60000}
			if g := greedy.Greedy(in); g.Covered == g.Demanding {
				bOpts.InitialUpper = g.Design.Cost(in) + 1e-9
			}
			ex, err := bnb.Solve(in, bOpts)
			if err != nil || ex.Design == nil {
				return outcome{}
			}
			res, err := core.Solve(in, core.DefaultOptions(cfg.seed(ti)+7))
			if err != nil {
				return outcome{}
			}
			return outcome{
				ratioOPT: res.Audit.Cost / math.Max(ex.Cost, 1e-12),
				ratioLP:  res.ApproxRatio(),
				wf:       res.Audit.WeightFactor,
				ff:       res.Audit.FanoutFactor,
				ok:       true,
			}
		})
		var rOPT, rLP []float64
		minWF, maxFF := math.Inf(1), 0.0
		n := 0
		for _, o := range outs {
			if !o.ok {
				continue
			}
			n++
			rOPT = append(rOPT, o.ratioOPT)
			rLP = append(rLP, o.ratioLP)
			if o.wf < minWF {
				minWF = o.wf
			}
			if o.ff > maxFF {
				maxFF = o.ff
			}
		}
		if n == 0 {
			t.AddRow(fam.name, "0", "-", "-", "-", "-", "-", "-", "-")
			continue
		}
		t.AddRowf(fam.name, n, stats.Mean(rOPT), stats.MaxFloat(rOPT), stats.Mean(rLP),
			minWF, maxFF, yes(minWF >= 0.25-1e-9), yes(maxFF <= 4+1e-9))
	}
	t.AddNote("paper guarantees: weight factor ≥ 1/4 and fanout factor ≤ 4 always; cost within O(log n) of OPT")
	t.AddNote("cost/OPT < 1 is legitimate: the algorithm is bicriteria — it may undercut the exact optimum of the")
	t.AddNote("FULLY-constrained IP because its own output only promises the relaxed (W/4, 4F) constraints")
	return t
}

// T2RoundingGuarantees isolates the §3 stage and validates Lemma 4.1 (cost),
// Lemma 4.3 (weight retention at δ=1/4), Lemma 4.6 (fanout ≤ 2F), each over
// many independent seeds on a fixed medium instance.
func T2RoundingGuarantees(cfg Config) *stats.Table {
	size := [3]int{2, 8, 24}
	if cfg.Quick {
		size = [3]int{2, 6, 14}
	}
	in := gen.Uniform(gen.DefaultUniform(size[0], size[1], size[2]), 42)
	fs, err := lpmodel.SolveLP(in, lpmodel.DefaultOptions())
	t := stats.NewTable(fmt.Sprintf("T2 — §3 rounding stage on uniform %d×%d×%d (n=%d sinks)", size[0], size[1], size[2], size[2]),
		"metric", "measured", "paper bound", "holds?")
	if err != nil {
		t.AddNote("LP infeasible: %v", err)
		return t
	}
	trials := cfg.trials(200)
	type obs struct {
		cost, minWF, maxFF float64
		wViol, fViol       int
	}
	outs := par.Map(trials, 0, func(ti int) obs {
		r := round.Apply(in, fs, round.DefaultOptions(cfg.seed(ti)))
		inst := r.Instrument(in, fs.Cost)
		return obs{cost: r.Cost, minWF: inst.MinWeightFactor, maxFF: inst.MaxFanoutFactor,
			wViol: inst.WeightViolations, fViol: inst.FanoutViolations}
	})
	var costs, wfs, ffs []float64
	wBad, fBad := 0, 0
	for _, o := range outs {
		costs = append(costs, o.cost)
		wfs = append(wfs, o.minWF)
		ffs = append(ffs, o.maxFF)
		if o.wViol > 0 {
			wBad++
		}
		if o.fViol > 0 {
			fBad++
		}
	}
	lambda := 64 * math.Log(float64(in.NumSinks))
	t.AddRowf("E[cost] / LP", stats.Mean(costs)/fs.Cost, fmt.Sprintf("≤ c·ln n = %.1f (Lemma 4.1)", lambda),
		yes(stats.Mean(costs)/fs.Cost <= lambda*1.05))
	t.AddRowf("min weight factor (mean over seeds)", stats.Mean(wfs), "≥ 3/4 w.h.p. (Lemma 4.3, δ=1/4)",
		yes(stats.Mean(wfs) >= 0.75))
	t.AddRowf("seeds with any weight constraint < 3/4", fmt.Sprintf("%d/%d", wBad, len(outs)),
		"prob < 1/n per constraint", yes(float64(wBad) <= math.Max(1, float64(len(outs)))*0.1))
	t.AddRowf("max fanout factor (mean over seeds)", stats.Mean(ffs), "≤ 2 w.h.p. (Lemma 4.6, c ≥ 24)",
		yes(stats.Mean(ffs) <= 2))
	t.AddRowf("seeds with any fanout > 2F", fmt.Sprintf("%d/%d", fBad, len(outs)), "rare", yes(float64(fBad) <= math.Max(1, float64(len(outs)))*0.1))
	t.AddNote("instance: %s; LP cost %.4f; %d rounding seeds", in.Name, fs.Cost, trials)
	return t
}

// T3ParameterTradeoff sweeps the rounding constant c: smaller c means
// cheaper solutions but more weight-constraint violations — the
// multicriterion trade-off §1.6 and §4 describe.
func T3ParameterTradeoff(cfg Config) *stats.Table {
	size := [3]int{2, 8, 20}
	if cfg.Quick {
		size = [3]int{2, 6, 12}
	}
	in := gen.Uniform(gen.DefaultUniform(size[0], size[1], size[2]), 17)
	fs, err := lpmodel.SolveLP(in, lpmodel.DefaultOptions())
	t := stats.NewTable("T3 — trade-off in the rounding constant c (δ²·c = 4 ⇒ δ = 2/√c)",
		"c", "λ=c·ln n", "cost/LP mean", "weight-violation seeds", "fanout-violation seeds", "min weight factor")
	if err != nil {
		t.AddNote("LP infeasible: %v", err)
		return t
	}
	trials := cfg.trials(100)
	// The sweep deliberately extends BELOW the paper's constants: once
	// c·ln n exceeds 1/ẑ for every reflector, step [1] saturates ż = 1
	// and the procedure becomes deterministic (the LP is near-integral on
	// realistic instances). Genuine coin flips — and hence violations —
	// only appear at small multipliers.
	for _, c := range []float64{0.25, 0.5, 1, 2, 4, 16, round.DefaultC} {
		type obs struct {
			cost, minWF float64
			w, f        bool
		}
		outs := par.Map(trials, 0, func(ti int) obs {
			o := round.Options{C: c, Seed: cfg.seed(ti)}
			r := round.Apply(in, fs, o)
			inst := r.Instrument(in, fs.Cost)
			return obs{cost: r.Cost, minWF: inst.MinWeightFactor,
				w: inst.WeightViolations > 0, f: inst.FanoutViolations > 0}
		})
		var costs, wfs []float64
		wBad, fBad := 0, 0
		for _, o := range outs {
			costs = append(costs, o.cost)
			wfs = append(wfs, o.minWF)
			if o.w {
				wBad++
			}
			if o.f {
				fBad++
			}
		}
		lambda := math.Max(c*math.Log(float64(in.NumSinks)), 1)
		t.AddRowf(c, lambda, stats.Mean(costs)/fs.Cost,
			fmt.Sprintf("%d/%d", wBad, trials), fmt.Sprintf("%d/%d", fBad, trials), stats.MinFloat(wfs))
	}
	t.AddNote("larger c: provably safer (fewer weight violations, Lemma 4.3 tail δ=1/4) at higher expected cost;")
	t.AddNote("at the paper's c=64 the multiplier saturates every ż to 1 on this instance — fully deterministic, zero violations")
	return t
}

// T8Baselines compares the LP-rounding algorithm with the greedy and random
// baselines on matched instances: cost (normalized by the LP lower bound)
// and feasibility profile.
func T8Baselines(cfg Config) *stats.Table {
	t := stats.NewTable("T8 — algorithm vs baselines (cost normalized by LP lower bound)",
		"method", "cost/LP mean", "cost/LP max", "coverage", "fanout ≤ F?", "notes")
	size := [3]int{2, 10, 20}
	if cfg.Quick {
		size = [3]int{2, 6, 10}
	}
	trials := cfg.trials(10)
	type obs struct {
		lp, algo, greedyC, randC float64
		algoFF                   float64
		algoWF                   float64
		gCov, gDem               int
		rCov                     int
		ok                       bool
	}
	outs := par.Map(trials, 0, func(ti int) obs {
		in := gen.Uniform(gen.DefaultUniform(size[0], size[1], size[2]), cfg.seed(ti))
		res, err := core.Solve(in, core.DefaultOptions(cfg.seed(ti)+3))
		if err != nil {
			return obs{}
		}
		g := greedy.Greedy(in)
		r := greedy.Random(in, cfg.seed(ti)+5)
		return obs{
			lp:      res.LPCost,
			algo:    res.Audit.Cost,
			algoFF:  res.Audit.FanoutFactor,
			algoWF:  res.Audit.WeightFactor,
			greedyC: g.Design.Cost(in),
			randC:   r.Design.Cost(in),
			gCov:    g.Covered, gDem: g.Demanding, rCov: r.Covered,
			ok: true,
		}
	})
	var aR, gR, rR []float64
	var wfMin, ffMax float64 = math.Inf(1), 0
	gCov, gDem, rCov := 0, 0, 0
	for _, o := range outs {
		if !o.ok {
			continue
		}
		aR = append(aR, o.algo/o.lp)
		gR = append(gR, o.greedyC/o.lp)
		rR = append(rR, o.randC/o.lp)
		if o.algoWF < wfMin {
			wfMin = o.algoWF
		}
		if o.algoFF > ffMax {
			ffMax = o.algoFF
		}
		gCov += o.gCov
		gDem += o.gDem
		rCov += o.rCov
	}
	t.AddRowf("LP-round (paper)", stats.Mean(aR), stats.MaxFloat(aR),
		fmt.Sprintf("≥ W/4 all (min fac %.2f)", wfMin),
		fmt.Sprintf("≤ 4F (max fac %.2f)", ffMax), "soft constraints, provable cost")
	t.AddRowf("greedy", stats.Mean(gR), stats.MaxFloat(gR),
		fmt.Sprintf("%d/%d full", gCov, gDem), "yes (hard)", "no cost guarantee")
	t.AddRowf("random", stats.Mean(rR), stats.MaxFloat(rR),
		fmt.Sprintf("%d/%d full", rCov, gDem), "yes (hard)", "strawman")
	t.AddNote("§1.5: greedy matches the set-cover bound only without capacities/multicover; the LP algorithm handles both")
	return t
}

// A3RepairCost quantifies the §7-style repair pass: what does topping the
// approximation's W/4 guarantee up to full demand cost, and how does the
// repaired design compare with pure greedy?
func A3RepairCost(cfg Config) *stats.Table {
	t := stats.NewTable("A3 — coverage repair (§7 heuristic): cost of going from W/4 to full demand",
		"method", "cost/LP mean", "sinks at full Φ-weight", "min weight factor")
	size := [3]int{2, 10, 20}
	if cfg.Quick {
		size = [3]int{2, 6, 10}
	}
	trials := cfg.trials(8)
	type obs struct {
		lp, raw, rep, grd   float64
		rawFull, repFull, n int
		rawMin, repMin      float64
		grdFull             int
		ok                  bool
	}
	outs := par.Map(trials, 0, func(ti int) obs {
		in := gen.Uniform(gen.DefaultUniform(size[0], size[1], size[2]), cfg.seed(ti))
		raw, err := core.Solve(in, core.DefaultOptions(cfg.seed(ti)+3))
		if err != nil {
			return obs{}
		}
		ropts := core.DefaultOptions(cfg.seed(ti) + 3)
		ropts.RepairCoverage = true
		rep, err := core.Solve(in, ropts)
		if err != nil {
			return obs{}
		}
		g := greedy.Greedy(in)
		o := obs{lp: raw.LPCost, raw: raw.Audit.Cost, rep: rep.Audit.Cost,
			grd: g.Design.Cost(in), rawMin: raw.Audit.WeightFactor, repMin: rep.Audit.WeightFactor, ok: true}
		o.rawFull = countFullWeight(in, raw.Design)
		o.repFull = countFullWeight(in, rep.Design)
		o.grdFull = countFullWeight(in, g.Design)
		o.n = in.NumSinks
		return o
	})
	var rawR, repR, grdR []float64
	rawFull, repFull, grdFull, total := 0, 0, 0, 0
	rawMin, repMin := math.Inf(1), math.Inf(1)
	for _, o := range outs {
		if !o.ok {
			continue
		}
		rawR = append(rawR, o.raw/o.lp)
		repR = append(repR, o.rep/o.lp)
		grdR = append(grdR, o.grd/o.lp)
		rawFull += o.rawFull
		repFull += o.repFull
		grdFull += o.grdFull
		total += o.n
		rawMin = math.Min(rawMin, o.rawMin)
		repMin = math.Min(repMin, o.repMin)
	}
	t.AddRowf("LP-round (raw, paper)", stats.Mean(rawR), frac(rawFull, total), rawMin)
	t.AddRowf("LP-round + repair", stats.Mean(repR), frac(repFull, total), repMin)
	t.AddRowf("greedy only", stats.Mean(grdR), frac(grdFull, total), "n/a")
	t.AddNote("repair keeps colors hard and fanout ≤ 4F while adding the cheapest effective arcs")
	return t
}

// countFullWeight counts sinks whose weight meets full demand.
func countFullWeight(in *netmodel.Instance, d *netmodel.Design) int {
	n := 0
	for j := 0; j < in.NumSinks; j++ {
		if in.Threshold[j] <= 0 {
			continue
		}
		if d.SinkWeight(in, j) >= in.Demand(j)-1e-9 {
			n++
		}
	}
	return n
}

func yes(b bool) string {
	if b {
		return "yes"
	}
	return "NO"
}
