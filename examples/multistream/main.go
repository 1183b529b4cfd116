// Multistream: native multi-stream sinks instead of the paper's copy-split
// WLOG. A clustered network where every sink subscribes to two of three
// streams is solved natively (grouped demand units, shared fanout), the
// optimum is cross-checked against the copy-split expansion, and a
// one-stream switch demonstrates the fractional viewer-churn accounting the
// copies could not express.
//
//	go run ./examples/multistream
package main

import (
	"fmt"
	"log"

	overlay "repro"
	"repro/internal/live"
	"repro/internal/lpmodel"
	"repro/internal/netmodel"
)

func main() {
	// 3 streams, 18 sinks each subscribing to 2 of them = 36 demand units.
	cfg := overlay.DefaultClusteredConfig(3, 3, 3, 6)
	cfg.StreamsPerSink = 2
	cfg.Fanout *= 2 // each sink now pulls two streams
	in := overlay.NewClusteredInstance(cfg, 11)
	fmt.Printf("instance %s: %d streams, %d reflectors, %d demand units across %d multi-stream sinks\n",
		in.Name, in.NumSources, in.NumReflectors, in.NumSinks, in.NumViewers())

	res, err := overlay.Solve(in, overlay.DefaultSolveOptions(42))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\n=== native design audit ===")
	fmt.Println(res.Audit)
	fmt.Printf("sinks fully served (every subscribed stream met): %d/%d viewers, %d/%d subscriptions\n",
		res.Audit.MetViewers, res.Audit.Viewers, res.Audit.MetDemand, res.Audit.Sinks)

	// The paper's §2 WLOG, executed: splitting each sink into one copy per
	// stream must not change the LP optimum.
	split := in.SplitStreams()
	nat, err := lpmodel.SolveLP(in, lpmodel.DefaultOptions())
	if err != nil {
		log.Fatal(err)
	}
	sp, err := lpmodel.SolveLP(split, lpmodel.DefaultOptions())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\n=== copy-split equivalence (the WLOG as a theorem) ===\n")
	fmt.Printf("native LP optimum %.4f | copy-split LP optimum %.4f | equal: %v\n",
		nat.Cost, sp.Cost, nat.Cost == sp.Cost)

	// Fractional churn: re-pull ONE of a sink's two streams and compare the
	// native accounting against the copy-split view.
	moved := res.Design.Clone()
	lo, _ := in.ViewerRange(0)
	for i := range moved.Serve {
		if moved.Serve[i][lo] { // move viewer 0's first stream elsewhere
			moved.Serve[i][lo] = false
			moved.Serve[(i+1)%in.NumReflectors][lo] = true
			break
		}
	}
	native := netmodel.DesignChurn(in, res.Design, moved)
	copySplit := netmodel.DesignChurn(split, res.Design, moved)
	fmt.Printf("\n=== one-stream switch on a 2-stream sink ===\n")
	fmt.Printf("stream switches: %d | native viewer churn: %.2f | copy-split would report: %.2f\n",
		native.Streams, native.Viewers, copySplit.Viewers)

	// A short popularity-wave timeline with the live engine: stream
	// subscribe/unsubscribe churn rides the incremental LP patch path.
	sc, err := live.Make("streamwave", 11, 12)
	if err != nil {
		log.Fatal(err)
	}
	rep, err := live.Run(sc, live.Config{Policy: live.WarmStickyPolicy()})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\n=== 12-epoch stream popularity wave (warm+sticky, incremental LP) ===\n")
	fmt.Printf("stream switches: %d | viewer churn: %.1f | LP builds: %d | cells patched: %d | all audits ok: %v\n",
		rep.TotalStreamChurn, rep.TotalViewerChurn, rep.TotalLPRebuilds, rep.TotalLPPatches, rep.AllAuditOK)
}
