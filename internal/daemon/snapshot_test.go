package daemon

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"reflect"
	"testing"

	"repro/internal/live"
	"repro/internal/netmodel"
	"repro/internal/obs"
)

// jsonTripSnapshot pushes the snapshot through the real codec, so the test
// exercises exactly what the disk sees.
func jsonTripSnapshot(t *testing.T, d *Daemon) *Snapshot {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteSnapshot(&buf, d.Snapshot()); err != nil {
		t.Fatal(err)
	}
	snap, err := ReadSnapshot(&buf)
	if err != nil {
		t.Fatal(err)
	}
	return snap
}

func placementBytes(t *testing.T, d *Daemon, sink int) []byte {
	t.Helper()
	srv := httptest.NewServer(d.Handler())
	defer srv.Close()
	code, body := get(t, srv, fmt.Sprintf("/placement?sink=%d", sink))
	if code != 200 {
		t.Fatalf("placement sink %d: %d %s", sink, code, body)
	}
	return body
}

// TestDaemonSnapshotRoundTrip drives every scenario in the library through
// two daemons — one uninterrupted, one snapshotted to JSON and restored
// mid-timeline with deltas still queued — and requires the epoch streams to
// be bit-identical: costs, pivots, churn, designs, and the placement
// responses straddling the restart. The first post-restore solve must
// resume the persisted factorization (warm restart, not a cold one).
func TestDaemonSnapshotRoundTrip(t *testing.T) {
	const epochs, restartAt = 8, 4
	sawAdoption := false
	for _, name := range live.Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			sc, err := live.Make(name, 13, epochs)
			if err != nil {
				t.Fatal(err)
			}
			byEpoch := make(map[int][]netmodel.Delta)
			for _, ev := range sc.Events {
				byEpoch[ev.Epoch] = append(byEpoch[ev.Epoch], ev.Delta)
			}

			cfg := testConfig(13)
			dA, err := New(sc.Base, cfg)
			if err != nil {
				t.Fatal(err)
			}
			dB, err := New(sc.Base, cfg)
			if err != nil {
				t.Fatal(err)
			}
			var firstAfterA, firstAfterB EpochInfo
			for e := 1; e < epochs; e++ {
				batch := byEpoch[e]
				if len(batch) > 0 {
					if _, _, err := dA.Ingest(batch); err != nil {
						t.Fatal(err)
					}
					if _, _, err := dB.Ingest(batch); err != nil {
						t.Fatal(err)
					}
				}
				if e == restartAt {
					// Snapshot B WITH the batch still queued: pending deltas
					// must survive the restart and be consumed by the next
					// solve, exactly as in the uninterrupted daemon.
					preBytes := placementBytes(t, dB, 0)
					snap := jsonTripSnapshot(t, dB)
					if len(snap.Pending) != len(batch) {
						t.Fatalf("snapshot carries %d pending deltas, want %d", len(snap.Pending), len(batch))
					}
					dB, err = Resume(snap, cfg)
					if err != nil {
						t.Fatal(err)
					}
					if st := dB.Status(); st.PendingDeltas != len(batch) || st.Epoch != restartAt-1 {
						t.Fatalf("restored status: %+v", st)
					}
					postBytes := placementBytes(t, dB, 0)
					if !bytes.Equal(preBytes, postBytes) {
						t.Fatalf("placement across restart differs:\npre:  %s\npost: %s", preBytes, postBytes)
					}
				}
				infoA, err := dA.SolveNow()
				if err != nil {
					t.Fatalf("epoch %d uninterrupted: %v", e, err)
				}
				infoB, err := dB.SolveNow()
				if err != nil {
					t.Fatalf("epoch %d restored: %v", e, err)
				}
				if e == restartAt {
					firstAfterA, firstAfterB = infoA, infoB
				}
				a, b := scrubNondet(infoA), scrubNondet(infoB)
				if !reflect.DeepEqual(a, b) {
					t.Fatalf("epoch %d diverged after restore:\nuninterrupted: %+v\nrestored:      %+v", e, a, b)
				}
				if !reflect.DeepEqual(dA.View().Design, dB.View().Design) {
					t.Fatalf("epoch %d: designs diverged after restore", e)
				}
			}
			// Warm resume: the restored arm's factorization telemetry matches
			// the uninterrupted one's exactly — same adoptions, same (absence
			// of extra) refactorizations, no LP rebuild. Scenarios whose
			// restart epoch adopts in the uninterrupted arm must adopt after
			// the restore too.
			if firstAfterB.FTUpdates != firstAfterA.FTUpdates ||
				firstAfterB.Refactorizations != firstAfterA.Refactorizations {
				t.Fatalf("post-restore factorization telemetry %d/%d, uninterrupted %d/%d",
					firstAfterB.FTUpdates, firstAfterB.Refactorizations,
					firstAfterA.FTUpdates, firstAfterA.Refactorizations)
			}
			if firstAfterB.LPRebuilds != 0 {
				t.Fatal("first post-restore solve rebuilt its LP instead of patching the restored one")
			}
			if firstAfterB.FTUpdates > 0 {
				sawAdoption = true
			}

			// The exported scenarios agree too: same base, same event log.
			scA, err := dA.Scenario()
			if err != nil {
				t.Fatal(err)
			}
			scB, err := dB.Scenario()
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(scA.Events, scB.Events) {
				t.Fatal("event logs diverged across restart")
			}
		})
	}
	if !sawAdoption {
		t.Error("no scenario in the library adopted the persisted factorization after restore")
	}
}

// scrubNondet zeroes the fields legitimately different across a restore:
// wall time (WallNS, StageWallNS); LPPatches (a restored session's first
// step re-patches every stickiness-bias cell value-for-value, since the
// bias memory is deliberately not checkpointed — more cells touched, same
// values); and the SLO window fractions, global, per region and per stream
// (the SLO window is monitoring state and restarts).
func scrubNondet(i EpochInfo) EpochInfo {
	i.WallNS = 0
	i.StageWallNS = nil
	i.LPPatches = 0
	i.SLOWindowFrac = 0
	i.Regions = append([]obs.RegionSLO(nil), i.Regions...)
	for k := range i.Regions {
		i.Regions[k].WindowFrac = 0
	}
	i.Streams = append([]obs.StreamSLO(nil), i.Streams...)
	for k := range i.Streams {
		i.Streams[k].WindowFrac = 0
	}
	return i
}

// TestSnapshotRejectsCorrupt locks the validation surface of the codec.
func TestSnapshotRejectsCorrupt(t *testing.T) {
	d, err := New(testInstance(t, 9), testConfig(9))
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := d.Ingest([]netmodel.Delta{joinDelta(0, 0.3)}); err != nil {
		t.Fatal(err)
	}
	good := d.Snapshot()
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}

	corrupt := func(name string, mutate func(*Snapshot)) {
		t.Helper()
		var buf bytes.Buffer
		if err := WriteSnapshot(&buf, d.Snapshot()); err != nil {
			t.Fatal(err)
		}
		var s Snapshot
		if err := json.Unmarshal(buf.Bytes(), &s); err != nil {
			t.Fatal(err)
		}
		mutate(&s)
		var out bytes.Buffer
		if err := json.NewEncoder(&out).Encode(&s); err != nil {
			t.Fatal(err)
		}
		if _, err := ReadSnapshot(&out); err == nil {
			t.Fatalf("%s: corrupt snapshot accepted", name)
		}
	}
	corrupt("bad format", func(s *Snapshot) { s.Format = 99 })
	corrupt("no base", func(s *Snapshot) { s.Base = nil })
	corrupt("no instance", func(s *Snapshot) { s.Instance = nil })
	corrupt("no session", func(s *Snapshot) { s.Session = nil })
	corrupt("pending out of range", func(s *Snapshot) {
		s.Pending = append(s.Pending, joinDelta(1<<30, 0.5))
	})
	corrupt("event out of range", func(s *Snapshot) {
		s.Events = append(s.Events, live.Event{Epoch: -1, Delta: joinDelta(0, 0.5)})
	})
	corrupt("negative steps", func(s *Snapshot) { s.Session.Steps = -1 })

	if _, err := Resume(nil, testConfig(9)); err == nil {
		t.Fatal("Resume accepted a nil snapshot")
	}
}

// TestSnapshotRejectsFormat1: a format-1 snapshot carries eta files of the
// unscaled rows, which would invert a different matrix than the scaled
// Problem a restore rebuilds, so it is refused, naming both formats.
func TestSnapshotRejectsFormat1(t *testing.T) {
	d, err := New(testInstance(t, 9), testConfig(9))
	if err != nil {
		t.Fatal(err)
	}
	s := d.Snapshot()
	s.Format = 1
	raw, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	_, err = ReadSnapshot(bytes.NewReader(raw))
	if err == nil {
		t.Fatal("format-1 snapshot accepted")
	}
	want := fmt.Sprintf("daemon: snapshot format 1, this build reads only format %d", SnapshotFormat)
	if err.Error() != want {
		t.Fatalf("error %q, want %q", err, want)
	}
	if _, err := Resume(s, testConfig(9)); err == nil {
		t.Fatal("Resume accepted a format-1 snapshot")
	}
}
