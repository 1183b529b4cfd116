package exp

import (
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/lpmodel"
	"repro/internal/netmodel"
	"repro/internal/par"
	"repro/internal/reliability"
	"repro/internal/round"
	"repro/internal/stats"
)

// T4ColorConstraints validates §6.4/§6.5: with ISP colors on, the path
// rounding keeps at most one copy per (ISP, sink) up to the additive bound,
// with cost within the §6.5 factor of the fractional stage.
func T4ColorConstraints(cfg Config) *stats.Table {
	t := stats.NewTable("T4 — §6.4 color constraints via §6.5 path rounding",
		"ISPs", "trials", "cost/LP mean", "max color excess", "max fanout excess", "bounds (≤7 / ≤7)", "boxes served")
	trials := cfg.trials(6)
	isps := []int{2, 3, 4}
	if cfg.Quick {
		isps = []int{2, 3}
	}
	for _, m := range isps {
		type obs struct {
			ratio                  float64
			colorEx                int
			fanoutEx               float64
			served, total, retries int
			ok                     bool
		}
		outs := par.Map(trials, 0, func(ti int) obs {
			ccfg := gen.DefaultClustered(2, 2, m, 5)
			if cfg.Quick {
				ccfg = gen.DefaultClustered(2, 2, m, 3)
			}
			in := gen.Clustered(ccfg, cfg.seed(ti))
			res, err := core.Solve(in, core.DefaultOptions(cfg.seed(ti)+11))
			if err != nil || res.STResult == nil {
				return obs{}
			}
			return obs{
				ratio:    res.Audit.Cost / math.Max(res.LPCost, 1e-12),
				colorEx:  res.STResult.MaxColorExcess,
				fanoutEx: math.Max(res.STResult.MaxFanoutExcess, 0),
				served:   res.STResult.ServedBoxes,
				total:    res.STResult.TotalBoxes,
				retries:  res.STResult.Retries,
				ok:       true,
			}
		})
		var ratios []float64
		maxColor, maxFan := 0, 0.0
		served, total, n := 0, 0, 0
		for _, o := range outs {
			if !o.ok {
				continue
			}
			n++
			ratios = append(ratios, o.ratio)
			if o.colorEx > maxColor {
				maxColor = o.colorEx
			}
			if o.fanoutEx > maxFan {
				maxFan = o.fanoutEx
			}
			served += o.served
			total += o.total
		}
		if n == 0 {
			t.AddRow(fmt.Sprint(m), "0", "-", "-", "-", "-", "-")
			continue
		}
		t.AddRowf(m, n, stats.Mean(ratios), maxColor, maxFan,
			yes(maxColor <= 7 && maxFan <= 7), fmt.Sprintf("%d/%d", served, total))
	}
	t.AddNote("§6.5 guarantees: cost < 14× fractional stage, additive constraint violation < 7")
	return t
}

// T6ISPFailure is the §6.4 motivation drill: build designs with and without
// color constraints on a network where one ISP is heavily discounted (so a
// pure cost optimizer concentrates there), fail each ISP in turn, and
// measure both full-quality survivors and sinks still served at all (the
// blackout metric behind "we will still serve most of the sinks").
func T6ISPFailure(cfg Config) *stats.Table {
	t := stats.NewTable("T6 — ISP outage drill on a network with one discounted ISP",
		"design", "cost", "meet Φ (healthy)", "worst-ISP: meet Φ", "worst-ISP: still served", "blackouts?")
	ccfg := gen.DefaultClustered(2, 2, 3, 6)
	if cfg.Quick {
		ccfg = gen.DefaultClustered(2, 2, 3, 3)
	}
	in := gen.Clustered(ccfg, cfg.seed(0))
	// Discount ISP 0 to create concentration pressure (§6.4 motivation).
	for i := 0; i < in.NumReflectors; i++ {
		if in.Color[i] == 0 {
			in.ReflectorCost[i] *= 0.25
			for k := 0; k < in.NumSources; k++ {
				in.SrcRefCost[k][i] *= 0.25
			}
			for j := 0; j < in.NumSinks; j++ {
				in.RefSinkCost[i][j] *= 0.25
			}
		}
	}

	opts := core.DefaultOptions(cfg.seed(1))
	opts.RepairCoverage = true // both designs serve full demand when healthy
	colored, err := core.Solve(in, opts)
	if err != nil {
		t.AddNote("colored solve failed: %v", err)
		return t
	}
	plainIn := in.Clone()
	plainIn.Color = nil
	plainIn.NumColors = 0
	plain, err := core.Solve(plainIn, opts)
	if err != nil {
		t.AddNote("plain solve failed: %v", err)
		return t
	}

	eval := func(d *netmodel.Design) (baseMeet, worstMeet, worstServed int) {
		baseMeet, _ = countSurvivors(in, d, -1)
		worstMeet, worstServed = in.NumSinks+1, in.NumSinks+1
		for isp := 0; isp < in.NumColors; isp++ {
			m, s := countSurvivors(in, d, isp)
			if m < worstMeet {
				worstMeet = m
			}
			if s < worstServed {
				worstServed = s
			}
		}
		return
	}
	cb, cwm, cws := eval(colored.Design)
	pb, pwm, pws := eval(plain.Design)
	t.AddRowf("color-constrained (§6.4)", colored.Audit.Cost, frac(cb, in.NumSinks),
		frac(cwm, in.NumSinks), frac(cws, in.NumSinks), yes(cws < in.NumSinks))
	t.AddRowf("unconstrained", plain.Audit.Cost, frac(pb, in.NumSinks),
		frac(pwm, in.NumSinks), frac(pws, in.NumSinks), yes(pws < in.NumSinks))
	t.AddNote("\"still served\" = at least one copy flowing after the ISP failure (no blackout)")
	t.AddNote("the colored design pays more but no single ISP failure can black out its sinks")
	return t
}

func frac(a, b int) string { return fmt.Sprintf("%d/%d", a, b) }

// countSurvivors evaluates the design with ISP failedISP down (-1 = none):
// sinks meeting their full threshold and sinks with at least one copy.
func countSurvivors(in *netmodel.Instance, d *netmodel.Design, failedISP int) (meetPhi, served int) {
	surviving := d
	if failedISP >= 0 {
		surviving = d.Clone()
		for i := 0; i < in.NumReflectors; i++ {
			if in.Color != nil && in.Color[i] == failedISP {
				for j := 0; j < in.NumSinks; j++ {
					surviving.Serve[i][j] = false
				}
			}
		}
	}
	for j := 0; j < in.NumSinks; j++ {
		if in.Threshold[j] <= 0 {
			continue
		}
		fail := reliability.SinkFailure(in, surviving, j)
		if 1-fail >= in.Threshold[j]-1e-12 {
			meetPhi++
		}
		if fail < 1 {
			served++
		}
	}
	return
}

// T10Bandwidth validates the §6.1 extension: streams with heterogeneous
// bandwidths B^k consume fanout proportionally, and the guarantees survive.
func T10Bandwidth(cfg Config) *stats.Table {
	t := stats.NewTable("T10 — §6.1 heterogeneous stream bandwidths",
		"bandwidths", "trials", "cost/LP mean", "min weight fac", "max BW-weighted fanout fac", "within ×4?")
	trials := cfg.trials(6)
	type scen struct {
		name string
		bw   []float64
	}
	scens := []scen{
		{"uniform (1,1)", []float64{1, 1}},
		{"mixed (1,2)", []float64{1, 2}},
		{"skewed (1,4)", []float64{1, 4}},
	}
	for _, sc := range scens {
		type obs struct {
			ratio, wf, ff float64
			ok            bool
		}
		outs := par.Map(trials, 0, func(ti int) obs {
			ucfg := gen.DefaultUniform(2, 8, 14)
			if cfg.Quick {
				ucfg = gen.DefaultUniform(2, 6, 10)
			}
			// Scale fanouts up so heavy streams stay feasible.
			ucfg.FanoutLo *= 4
			ucfg.FanoutHi *= 4
			in := gen.Uniform(ucfg, cfg.seed(ti))
			in.Bandwidth = append([]float64(nil), sc.bw...)
			res, err := core.Solve(in, core.DefaultOptions(cfg.seed(ti)+23))
			if err != nil {
				return obs{}
			}
			return obs{ratio: res.ApproxRatio(), wf: res.Audit.WeightFactor, ff: res.Audit.FanoutFactor, ok: true}
		})
		var ratios []float64
		minWF, maxFF := math.Inf(1), 0.0
		n := 0
		for _, o := range outs {
			if !o.ok {
				continue
			}
			n++
			ratios = append(ratios, o.ratio)
			minWF = math.Min(minWF, o.wf)
			maxFF = math.Max(maxFF, o.ff)
		}
		if n == 0 {
			t.AddRow(sc.name, "0", "-", "-", "-", "-")
			continue
		}
		t.AddRowf(sc.name, n, stats.Mean(ratios), minWF, maxFF, yes(maxFF <= 4+1e-9))
	}
	t.AddNote("fanout factor counts B^k-weighted use per §6.1 constraints (3'),(4')")
	return t
}

// T11EdgeCapacities validates §6.3: per reflector→sink arc capacities are
// modeled as LP bounds and honored by the path rounding (hard: an arc with
// u<1 is never used integrally).
func T11EdgeCapacities(cfg Config) *stats.Table {
	t := stats.NewTable("T11 — §6.3 reflector→sink arc capacities",
		"capped arcs", "trials", "cost/LP mean", "cap violations", "min weight fac")
	trials := cfg.trials(6)
	for _, frac := range []float64{0, 0.2, 0.4} {
		type obs struct {
			ratio, wf float64
			viol      int
			ok        bool
		}
		outs := par.Map(trials, 0, func(ti int) obs {
			ucfg := gen.DefaultUniform(1, 8, 12)
			if cfg.Quick {
				ucfg = gen.DefaultUniform(1, 6, 8)
			}
			in := gen.Uniform(ucfg, cfg.seed(ti))
			rng := stats.NewRNG(cfg.seed(ti) + 99)
			in.EdgeCap = make([][]float64, in.NumReflectors)
			for i := range in.EdgeCap {
				in.EdgeCap[i] = make([]float64, in.NumSinks)
				for j := range in.EdgeCap[i] {
					if rng.Float64() < frac {
						in.EdgeCap[i][j] = 0 // forbidden arc
					} else {
						in.EdgeCap[i][j] = 1
					}
				}
			}
			res, err := core.Solve(in, core.DefaultOptions(cfg.seed(ti)+31))
			if err != nil {
				return obs{}
			}
			viol := 0
			for i := range res.Design.Serve {
				for j, s := range res.Design.Serve[i] {
					if s && in.EdgeCap[i][j] < 1 {
						viol++
					}
				}
			}
			return obs{ratio: res.ApproxRatio(), wf: res.Audit.WeightFactor, viol: viol, ok: true}
		})
		var ratios []float64
		minWF := math.Inf(1)
		viol, n := 0, 0
		for _, o := range outs {
			if !o.ok {
				continue
			}
			n++
			ratios = append(ratios, o.ratio)
			minWF = math.Min(minWF, o.wf)
			viol += o.viol
		}
		if n == 0 {
			t.AddRow(fmt.Sprintf("%.0f%%", frac*100), "0", "-", "-", "-")
			continue
		}
		t.AddRowf(fmt.Sprintf("%.0f%%", frac*100), n, stats.Mean(ratios), viol, minWF)
	}
	t.AddNote("capacities < 1 forbid arcs outright for integral assignments; feasible instances get costlier as arcs disappear")
	return t
}

// A1CuttingPlaneAblation measures the effect of constraint (4): the IP does
// not need it (Claim 2.1) but the §4 analysis of the rounding does. Without
// it, fanout violations after rounding get heavier tails.
func A1CuttingPlaneAblation(cfg Config) *stats.Table {
	t := stats.NewTable("A1 — ablation: cutting plane (4) in the LP",
		"variant", "LP cost", "mean max-fanout factor after rounding", "seeds with fanout > 2F")
	size := [3]int{2, 8, 20}
	if cfg.Quick {
		size = [3]int{2, 6, 12}
	}
	in := gen.Uniform(gen.DefaultUniform(size[0], size[1], size[2]), 23)
	trials := cfg.trials(100)
	for _, withPlane := range []bool{true, false} {
		opts := lpmodel.DefaultOptions()
		opts.CuttingPlane = withPlane
		frac, err := lpmodel.SolveLP(in, opts)
		if err != nil {
			t.AddNote("LP failed: %v", err)
			return t
		}
		type obs struct {
			ff  float64
			bad bool
		}
		// Use a small multiplier (C=1) so the rounding genuinely
		// randomizes — at the paper's c=64 the saturated procedure is
		// deterministic and the cutting plane's effect is invisible.
		outs := par.Map(trials, 0, func(ti int) obs {
			r := roundWith(in, frac, cfg.seed(ti))
			return obs{ff: r.MaxFanoutFactor, bad: r.FanoutViolations > 0}
		})
		var ffs []float64
		bad := 0
		for _, o := range outs {
			ffs = append(ffs, o.ff)
			if o.bad {
				bad++
			}
		}
		name := "with (4)"
		if !withPlane {
			name = "without (4)"
		}
		t.AddRowf(name, frac.Cost, stats.Mean(ffs), fmt.Sprintf("%d/%d", bad, trials))
	}
	t.AddNote("Claim 2.1: (4) is redundant for the IP; §4 uses it as the cutting plane that makes Lemma 4.6 go through")
	t.AddNote("rounding at C=1 (randomization regime); at this scale the fanout tail never fires either way —")
	t.AddNote("the plane is insurance for the adversarial instances of the proof, not a practical-cost item")
	return t
}

// A2GapVsPathRounding compares the two final-stage rounders on the same
// (uncolored) instances: §5 GAP flow vs §6.5 path sampling.
func A2GapVsPathRounding(cfg Config) *stats.Table {
	t := stats.NewTable("A2 — ablation: §5 GAP flow rounding vs §6.5 path rounding (no colors)",
		"rounder", "trials", "cost/LP mean", "min weight fac", "max fanout fac")
	trials := cfg.trials(8)
	for _, forcePath := range []bool{false, true} {
		type obs struct {
			ratio, wf, ff float64
			ok            bool
		}
		outs := par.Map(trials, 0, func(ti int) obs {
			size := gen.DefaultUniform(2, 8, 14)
			if cfg.Quick {
				size = gen.DefaultUniform(2, 6, 10)
			}
			in := gen.Uniform(size, cfg.seed(ti))
			opts := core.DefaultOptions(cfg.seed(ti) + 41)
			opts.ForcePathRounding = forcePath
			res, err := core.Solve(in, opts)
			if err != nil {
				return obs{}
			}
			return obs{ratio: res.ApproxRatio(), wf: res.Audit.WeightFactor, ff: res.Audit.FanoutFactor, ok: true}
		})
		var ratios []float64
		minWF, maxFF := math.Inf(1), 0.0
		n := 0
		for _, o := range outs {
			if !o.ok {
				continue
			}
			n++
			ratios = append(ratios, o.ratio)
			minWF = math.Min(minWF, o.wf)
			maxFF = math.Max(maxFF, o.ff)
		}
		name := "§5 GAP flow"
		if forcePath {
			name = "§6.5 path sampling"
		}
		if n == 0 {
			t.AddRow(name, "0", "-", "-", "-")
			continue
		}
		t.AddRowf(name, n, stats.Mean(ratios), minWF, maxFF)
	}
	t.AddNote("the GAP flow is deterministic given x̄ and exploits flow integrality; path sampling generalizes to entangled constraints")
	return t
}

// roundWith reruns the §3 rounding against a precomputed LP result at the
// randomization-regime multiplier C=1 and returns its instrumentation.
func roundWith(in *netmodel.Instance, frac *lpmodel.FracSolution, seed uint64) round.Instrumentation {
	r := round.Apply(in, frac, round.Options{C: 1, Seed: seed})
	return r.Instrument(in, frac.Cost)
}
