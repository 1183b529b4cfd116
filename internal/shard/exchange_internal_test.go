package shard

import "testing"

// TestSuperGroups pins the super-shard folding invariants: ⌈√k⌉ groups,
// every leaf in exactly one contiguous super-shard, and group sizes
// balanced to within one leaf.
func TestSuperGroups(t *testing.T) {
	cases := []struct {
		k, groups int
	}{
		{1, 1},
		{2, 2},
		{3, 2},
		{4, 2},
		{5, 3},
		{7, 3},
		{9, 3},
		{10, 4},
	}
	for _, c := range cases {
		gs := superGroups(c.k)
		if len(gs) != c.groups {
			t.Errorf("superGroups(%d): got %d groups, want %d", c.k, len(gs), c.groups)
			continue
		}
		next := 0
		minSz, maxSz := c.k, 0
		for _, g := range gs {
			if len(g) < minSz {
				minSz = len(g)
			}
			if len(g) > maxSz {
				maxSz = len(g)
			}
			for _, s := range g {
				if s != next {
					t.Fatalf("superGroups(%d): leaf %d out of order (want %d) — groups must be contiguous", c.k, s, next)
				}
				next++
			}
		}
		if next != c.k {
			t.Errorf("superGroups(%d): covered %d leaves, want %d", c.k, next, c.k)
		}
		if maxSz-minSz > 1 {
			t.Errorf("superGroups(%d): unbalanced groups: min %d max %d", c.k, minSz, maxSz)
		}
	}
}
