package live

import (
	"bytes"
	"math"
	"reflect"
	"testing"
)

// TestScenarioRecordReplayRoundTrip locks the -record/-replay contract: a
// serialized scenario must deserialize to an equivalent one, and replaying
// it must reproduce the original run report exactly (wall clocks aside).
func TestScenarioRecordReplayRoundTrip(t *testing.T) {
	sc := FlashCrowd(9, 14)
	var buf bytes.Buffer
	if err := WriteScenario(&buf, sc); err != nil {
		t.Fatal(err)
	}
	back, err := ReadScenario(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if back.Name != sc.Name || back.Seed != sc.Seed || back.Epochs != sc.Epochs {
		t.Fatalf("scenario header changed: %s/%d/%d", back.Name, back.Seed, back.Epochs)
	}
	if !reflect.DeepEqual(back.Events, sc.Events) {
		t.Fatal("event schedule changed across the round trip")
	}
	if !reflect.DeepEqual(back.Base, sc.Base) {
		t.Fatal("base instance changed across the round trip")
	}
	orig, err := Run(sc, Config{Policy: WarmStickyPolicy()})
	if err != nil {
		t.Fatal(err)
	}
	replayed, err := Run(back, Config{Policy: WarmStickyPolicy()})
	if err != nil {
		t.Fatal(err)
	}
	scrubWall(orig)
	scrubWall(replayed)
	if !reflect.DeepEqual(orig, replayed) {
		t.Fatal("replaying a recorded scenario produced a different report")
	}
}

// TestScenarioReadRejectsInvalid: a trace whose deltas do not fit its base
// instance must fail at load time.
func TestScenarioReadRejectsInvalid(t *testing.T) {
	sc := FlashCrowd(2, 8)
	sc.Events[0].Delta.SetThreshold[0].Sink = 99999
	var buf bytes.Buffer
	if err := WriteScenario(&buf, sc); err == nil {
		t.Fatal("WriteScenario accepted an invalid scenario")
	}
	// Bypass the write-side validation to exercise the read side.
	sc2 := FlashCrowd(2, 8)
	var buf2 bytes.Buffer
	if err := WriteScenario(&buf2, sc2); err != nil {
		t.Fatal(err)
	}
	corrupted := bytes.Replace(buf2.Bytes(), []byte(`"epochs": 8`), []byte(`"epochs": 0`), 1)
	if !bytes.Equal(corrupted, buf2.Bytes()) {
		if _, err := ReadScenario(bytes.NewReader(corrupted)); err == nil {
			t.Fatal("ReadScenario accepted a corrupted horizon")
		}
	}
}

// TestSLOWindowTracking recomputes the sliding-window availability from the
// per-epoch SLOOk bits and checks the engine's incremental bookkeeping
// against it, including the summary fields.
func TestSLOWindowTracking(t *testing.T) {
	cfg := Config{Policy: WarmStickyPolicy(), SLOWindow: 4, SLOTarget: 0.95}
	rep, err := Run(RollingISPOutage(3, 16), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.SLOWindow != 4 || rep.SLOTarget != 0.95 {
		t.Fatalf("SLO config not echoed: window=%d target=%g", rep.SLOWindow, rep.SLOTarget)
	}
	breaches := 0
	minFrac := 1.0
	for e, er := range rep.Epochs {
		wantOk := er.ActiveSinks == 0 || float64(er.MetDemand) >= 0.95*float64(er.ActiveSinks)-1e-9
		if er.SLOOk != wantOk {
			t.Fatalf("epoch %d: SLOOk=%v, want %v (met %d of %d)", e, er.SLOOk, wantOk, er.MetDemand, er.ActiveSinks)
		}
		if !er.SLOOk {
			breaches++
		}
		lo := e - 3
		if lo < 0 {
			lo = 0
		}
		ok := 0
		for _, w := range rep.Epochs[lo : e+1] {
			if w.SLOOk {
				ok++
			}
		}
		want := float64(ok) / float64(e+1-lo)
		if math.Abs(er.SLOWindowFrac-want) > 1e-12 {
			t.Fatalf("epoch %d: window frac %g, want %g", e, er.SLOWindowFrac, want)
		}
		if want < minFrac {
			minFrac = want
		}
	}
	if rep.SLOBreaches != breaches {
		t.Fatalf("SLOBreaches = %d, want %d", rep.SLOBreaches, breaches)
	}
	if math.Abs(rep.MinSLOWindow-minFrac) > 1e-12 {
		t.Fatalf("MinSLOWindow = %g, want %g", rep.MinSLOWindow, minFrac)
	}
}
