package live

import "repro/internal/obs"

// The windowed availability SLO tracker, an explicit state machine so that
// a timeline with no fixed horizon (overlayd's) keeps the same books as a
// scenario run: the Engine feeds it one epoch's audit verdicts and gets
// back the global trailing-window availability plus the per-region and
// per-stream breakdowns the /slo endpoint serves.

// SLOEpoch is one epoch's verdict from the tracker.
type SLOEpoch struct {
	// Ok reports whether the epoch met the availability target; WindowFrac
	// the fraction of the trailing window's epochs that did.
	Ok         bool
	WindowFrac float64
	// Regions / Streams are the per-region and per-stream breakdowns
	// (Regions nil without a region map; Streams nil without a commodity
	// map).
	Regions []obs.RegionSLO
	Streams []obs.StreamSLO
}

// DefaultSLOWindow and DefaultSLOTarget are the availability SLO's window
// (in epochs) and target when none is given (see Config.SLOWindow for why
// the target is deliberately low).
const (
	DefaultSLOWindow = 8
	DefaultSLOTarget = 0.5
)

// SLOTracker maintains the sliding-window availability SLO of §1.3's
// monitoring loop: an epoch is available when at least Target of its active
// demand units meet their exact reliability threshold, and the tracker
// reports the fraction of available epochs over a trailing window —
// globally, per topology region, and per stream. One tracker serves one
// timeline; it is not safe for concurrent Observe calls.
type SLOTracker struct {
	// Window / Target are fixed at construction (DefaultSLOWindow and
	// DefaultSLOTarget when not positive).
	Window int
	Target float64

	epoch     int
	okHist    []bool
	okCount   int
	breaches  int
	minWindow float64

	sinkRegion []int
	numRegions int
	regHist    [][]bool
	regOK      []int

	commodity  []int
	numStreams int
	strHist    [][]bool
	strOK      []int
}

// NewSLOTracker builds a tracker. sinkRegion maps each demand unit to its
// topology region (nil disables the per-region breakdown); commodity maps
// each demand unit to its stream (nil disables the per-stream breakdown —
// pass the instance's Commodity slice).
func NewSLOTracker(window int, target float64, sinkRegion, commodity []int) *SLOTracker {
	if window <= 0 {
		window = DefaultSLOWindow
	}
	if target <= 0 {
		target = DefaultSLOTarget
	}
	t := &SLOTracker{Window: window, Target: target, minWindow: 1,
		sinkRegion: sinkRegion, commodity: commodity}
	for _, r := range sinkRegion {
		if r+1 > t.numRegions {
			t.numRegions = r + 1
		}
	}
	t.regHist = make([][]bool, t.numRegions)
	t.regOK = make([]int, t.numRegions)
	for _, k := range commodity {
		if k+1 > t.numStreams {
			t.numStreams = k + 1
		}
	}
	t.strHist = make([][]bool, t.numStreams)
	t.strOK = make([]int, t.numStreams)
	return t
}

// Epochs returns how many epochs the tracker has observed.
func (t *SLOTracker) Epochs() int { return t.epoch }

// Breaches returns how many observed epochs missed the target.
func (t *SLOTracker) Breaches() int { return t.breaches }

// MinWindowFrac returns the worst trailing-window availability seen (1
// before any epoch).
func (t *SLOTracker) MinWindowFrac() float64 { return t.minWindow }

// slice is one breakdown dimension's per-epoch update: shared by the
// region and stream axes, which differ only in their unit→bucket map.
func (t *SLOTracker) slice(keyOf []int, n int, hist [][]bool, okCount []int,
	thresholds []float64, met []bool, window int) (active, metN []int) {
	active = make([]int, n)
	metN = make([]int, n)
	for j, key := range keyOf {
		if thresholds[j] > 0 {
			active[key]++
			if met[j] {
				metN[key]++
			}
		}
	}
	for key := 0; key < n; key++ {
		ok := active[key] == 0 ||
			float64(metN[key]) >= t.Target*float64(active[key])-1e-9
		if ok {
			okCount[key]++
		}
		hist[key] = append(hist[key], ok)
		if drop := t.epoch - t.Window; drop >= 0 && hist[key][drop] {
			okCount[key]--
		}
	}
	return active, metN
}

// Observe feeds one epoch's audit outcome: the per-unit thresholds after
// the epoch's events (a unit is active when positive) and the audit's
// per-unit met flags. Returns the epoch's SLO verdict with breakdowns.
func (t *SLOTracker) Observe(thresholds []float64, met []bool) SLOEpoch {
	activeN, metN := 0, 0
	for j, thr := range thresholds {
		if thr > 0 {
			activeN++
			if met[j] {
				metN++
			}
		}
	}
	out := SLOEpoch{}
	out.Ok = activeN == 0 || float64(metN) >= t.Target*float64(activeN)-1e-9
	if out.Ok {
		t.okCount++
	} else {
		t.breaches++
	}
	t.okHist = append(t.okHist, out.Ok)
	if drop := t.epoch - t.Window; drop >= 0 && t.okHist[drop] {
		t.okCount--
	}
	window := t.Window
	if t.epoch+1 < window {
		window = t.epoch + 1
	}
	out.WindowFrac = float64(t.okCount) / float64(window)
	if out.WindowFrac < t.minWindow {
		t.minWindow = out.WindowFrac
	}

	if t.numRegions > 0 {
		active, metR := t.slice(t.sinkRegion, t.numRegions, t.regHist, t.regOK, thresholds, met, window)
		for reg := 0; reg < t.numRegions; reg++ {
			frac := 1.0
			if active[reg] > 0 {
				frac = float64(metR[reg]) / float64(active[reg])
			}
			out.Regions = append(out.Regions, obs.RegionSLO{
				Region:     reg,
				Active:     active[reg],
				Met:        metR[reg],
				Frac:       frac,
				WindowFrac: float64(t.regOK[reg]) / float64(window),
			})
		}
	}
	if t.numStreams > 0 {
		active, metS := t.slice(t.commodity, t.numStreams, t.strHist, t.strOK, thresholds, met, window)
		for k := 0; k < t.numStreams; k++ {
			frac := 1.0
			if active[k] > 0 {
				frac = float64(metS[k]) / float64(active[k])
			}
			out.Streams = append(out.Streams, obs.StreamSLO{
				Stream:     k,
				Active:     active[k],
				Met:        metS[k],
				Frac:       frac,
				WindowFrac: float64(t.strOK[k]) / float64(window),
			})
		}
	}
	t.epoch++
	return out
}
