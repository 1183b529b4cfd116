package exp

import (
	"fmt"
	"time"

	"repro/internal/live"
	"repro/internal/lpmodel"
	"repro/internal/netmodel"
	"repro/internal/stats"
)

// ReplayRuns is how many times the incremental-rebuild measurements replay
// each scenario; every epoch keeps its minimum wall per arm over the runs.
const ReplayRuns = 7

// PatchReplay is the incremental LP rebuild measured on one scenario: its
// delta schedule replayed epoch by epoch through one lpmodel.Patcher, beside
// a fresh lpmodel.Build of the same instance every epoch.
type PatchReplay struct {
	// PatchNS and BuildNS sum the Patcher.Sync and Build walls over the
	// epochs, each epoch's the minimum over the replay's runs. Sync's
	// epoch-0 build also fills the CSC cache, which Build leaves to the
	// solver, as the lp-build stage does.
	PatchNS, BuildNS int64
	// Patches counts the LP cells the Patcher rewrote across the timeline
	// and Rebuilds the Syncs that fell back to a full build (epoch 0 always
	// does).
	Patches, Rebuilds int
	// Identical records that after every epoch of every run the patched
	// Problem equalled the fresh build cell by cell, with its CSC cache in
	// sync (lp.Problem.Diff and CheckCSCSync).
	Identical bool
}

// ReplayPatches replays sc's delta schedule runs times. Each epoch applies
// the epoch's deltas, then times Patcher.Sync with their dirty sets and a
// fresh Build of the fixed-shape LP a Session solves, and compares the two.
func ReplayPatches(sc *live.Scenario, runs int) (*PatchReplay, error) {
	byEpoch := make(map[int][]netmodel.Delta, len(sc.Events))
	for _, ev := range sc.Events {
		byEpoch[ev.Epoch] = append(byEpoch[ev.Epoch], ev.Delta)
	}
	out := &PatchReplay{Identical: true}
	var patchRuns, buildRuns [][]int64
	for run := 0; run < runs; run++ {
		in := sc.Base.Clone()
		opts := lpmodel.DefaultOptions(in)
		opts.FixedShape = true
		pt := lpmodel.NewPatcher()
		patchNS := make([]int64, sc.Epochs)
		buildNS := make([]int64, sc.Epochs)
		out.Patches, out.Rebuilds = 0, 0
		for e := 0; e < sc.Epochs; e++ {
			dirty := &netmodel.DirtySet{}
			for _, d := range byEpoch[e] {
				ds, err := d.Apply(in)
				if err != nil {
					return nil, fmt.Errorf("exp: %s epoch %d: %w", sc.Name, e, err)
				}
				dirty.Merge(ds)
			}
			start := time.Now()
			prob, _, st := pt.Sync(in, opts, dirty)
			patchNS[e] = time.Since(start).Nanoseconds()
			start = time.Now()
			fresh, _ := lpmodel.Build(in, opts)
			buildNS[e] = time.Since(start).Nanoseconds()

			out.Patches += st.Patches()
			if st.Rebuilt {
				out.Rebuilds++
			}
			if prob.Diff(fresh) != nil || prob.CheckCSCSync() != nil {
				out.Identical = false
			}
		}
		patchRuns = append(patchRuns, patchNS)
		buildRuns = append(buildRuns, buildNS)
	}
	patchMin, buildMin := stats.MinAcross(patchRuns), stats.MinAcross(buildRuns)
	for e := range patchMin {
		out.PatchNS += patchMin[e]
		out.BuildNS += buildMin[e]
	}
	return out, nil
}

// L5IncrementalRebuild measures what the delta-driven LP patching buys: for
// every library scenario it replays the delta schedule through one Patcher
// beside a fresh Build per epoch (ReplayPatches) and compares the summed
// walls. The patched LP must equal the rebuilt one cell by cell after every
// epoch, so the speedup is free.
func L5IncrementalRebuild(cfg Config) *stats.Table {
	t := stats.NewTable("L5 — incremental LP rebuild: per-epoch lp construction, patch vs rebuild",
		"scenario", "epochs", "rebuild ΣBuild", "patch ΣSync", "speedup", "Σpatches", "rebuilds", "identical")
	epochs := liveEpochs(cfg)
	var worst float64
	for _, name := range live.Names() {
		sc, err := live.Make(name, cfg.seed(2), epochs)
		if err != nil {
			t.AddNote("%s: %v", name, err)
			continue
		}
		rp, err := ReplayPatches(sc, ReplayRuns)
		if err != nil {
			t.AddNote("%s: %v", name, err)
			continue
		}
		speedup := float64(rp.BuildNS) / float64(rp.PatchNS)
		if worst == 0 || speedup < worst {
			worst = speedup
		}
		t.AddRowf(name, epochs,
			time.Duration(rp.BuildNS).Round(time.Microsecond).String(),
			time.Duration(rp.PatchNS).Round(time.Microsecond).String(),
			fmt.Sprintf("%.1fx", speedup),
			rp.Patches, rp.Rebuilds, yes(rp.Identical))
	}
	t.AddNote("worst lp-construction speedup across the library: %.1fx (per-epoch minimums of %d runs; the 50-epoch flash-crowd acceptance in bench_test.go asserts ≥3x)", worst, ReplayRuns)
	t.AddNote("each epoch patches only the LP cells its deltas touched; epoch 0 is the one full build")
	return t
}
