package main

import (
	"sort"

	"repro/internal/obs"
)

// spanTotals attributes a trace to layers. Over the spans that run under a
// steady-state epoch span (epoch ≥ 1; epoch 0 is set-up), it sums each span
// name's wall time and self time — the span's duration minus the part of it
// that its child spans cover — and counts runs. Per-shard spans also add
// their duration to their shard's busy time.
type spanTotals struct {
	wall, self map[string]float64 // nanoseconds, keyed by span name
	runs       map[string]int
	shardBusy  map[int]float64
}

func attribute(recs []obs.SpanRecord) spanTotals {
	t := spanTotals{
		wall: map[string]float64{}, self: map[string]float64{},
		runs: map[string]int{}, shardBusy: map[int]float64{},
	}
	byID := make(map[uint64]int, len(recs))
	children := make(map[uint64][]int, len(recs))
	for i, r := range recs {
		byID[r.ID] = i
		if r.Parent != 0 {
			children[r.Parent] = append(children[r.Parent], i)
		}
	}
	epochMemo := make(map[uint64]int, len(recs))
	var epochOf func(i int) int
	epochOf = func(i int) int {
		r := recs[i]
		if e, ok := epochMemo[r.ID]; ok {
			return e
		}
		e := -1
		if r.Name == "epoch" {
			if v, ok := r.Attrs["epoch"].(float64); ok {
				e = int(v)
			}
		} else if p, ok := byID[r.Parent]; ok && r.Parent != 0 {
			e = epochOf(p)
		}
		epochMemo[r.ID] = e
		return e
	}
	for i, r := range recs {
		if epochOf(i) < 1 {
			continue
		}
		t.wall[r.Name] += float64(r.DurNS)
		t.self[r.Name] += float64(r.DurNS - covered(r, recs, children[r.ID]))
		t.runs[r.Name]++
		if r.Name == "shard" {
			if s, ok := r.Attrs["shard"].(float64); ok {
				t.shardBusy[int(s)] += float64(r.DurNS)
			}
		}
	}
	return t
}

// covered is the length of the union of the child intervals, clipped to the
// parent's own interval.
func covered(parent obs.SpanRecord, recs []obs.SpanRecord, kids []int) int64 {
	type iv struct{ lo, hi int64 }
	lo0, hi0 := parent.StartNS, parent.StartNS+parent.DurNS
	ivs := make([]iv, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(recs[k].StartNS, lo0), min(recs[k].StartNS+recs[k].DurNS, hi0)
		if hi > lo {
			ivs = append(ivs, iv{lo, hi})
		}
	}
	sort.Slice(ivs, func(a, b int) bool { return ivs[a].lo < ivs[b].lo })
	var total, end int64 = 0, lo0
	for _, v := range ivs {
		if v.lo > end {
			end = v.lo
		}
		if v.hi > end {
			total += v.hi - end
			end = v.hi
		}
	}
	return total
}

// skew is the busiest shard's busy time over the mean shard's (1 = perfectly
// balanced); 0 without shards.
func (t spanTotals) skew() float64 {
	if len(t.shardBusy) == 0 {
		return 0
	}
	hi, sum := 0.0, 0.0
	for _, v := range t.shardBusy {
		hi = max(hi, v)
		sum += v
	}
	return ratio(hi, sum/float64(len(t.shardBusy)))
}
