package shard

// The hierarchical dual-price exchange: Dantzig–Wolfe-style coordination for
// the one resource the shards share, reflector fanout capacity.
//
// The flat pass (Coordinate) re-splits contested capacity proportionally to
// realized use plus heuristic bids, which needs several rounds to route
// capacity to the shard that values it most — and stops converging as the
// shard count grows, because a proportional split dilutes every bid by every
// other bid. The exchange replaces the heuristic with the LP's own economic
// signal: each leaf solve exposes the shadow price of its reflector-capacity
// rows (lpmodel.FracSolution.CapDuals → SolveResult.CapPrice), i.e. exactly
// how much its objective would improve per extra unit of fanout. A master
// clearing pass per level then moves capacity from low-price slack holders
// to high-price bidders — full claims in price order, not proportional
// slivers — so contested reflectors typically clear in ONE round where the
// flat pass burns its whole round budget.
//
// The hierarchy is the Dantzig–Wolfe tree flattened to two levels: leaves
// are the ordinary cost-anchor shards, and contiguous runs of leaves fold
// into super-shards (the leaf order IS the cost-anchor order, so contiguous
// runs are exactly the anchor groups the recursive partition would produce).
// The level-1 master clears capacity between the leaves of each super-shard
// — anchor-local contention, the common case — and the level-2 master clears
// the residual between super-shards. Clearing intra-super first keeps
// capacity near the region cluster that already holds it, which is what
// keeps leaf allocations (and their warm bases) stable as reflector counts
// reach the hundreds.
//
// PR-3's convergence guarantees survive verbatim: a feasible leaf's realized
// use is RESERVED (only slack ever moves, so clearing can never starve a
// previously-feasible leaf), starved leaves outrank every price bid with a
// claim that doubles each round they stay starved, and a leaf still starved
// at the round cap fails the solve with lpmodel.ErrInfeasible so the caller
// can fall back to the monolithic path at knife-edge scarcity.

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/lpmodel"
)

// exchangeGapTol is the relative bid/ask gap below which the exchange
// considers capacity cleared: the price-weighted unmet demand of a clearing
// round must be under 1% of the round's total bid value.
const exchangeGapTol = 0.01

// superGroups folds k leaf shards into ⌈√k⌉ contiguous super-shards, which
// balances the two masters: ~√k leaves per super and ~√k supers per
// exchange.
func superGroups(k int) [][]int {
	n := max(1, int(math.Ceil(math.Sqrt(float64(k)))))
	out := make([][]int, n)
	for g := 0; g < n; g++ {
		lo, hi := g*k/n, (g+1)*k/n
		for s := lo; s < hi; s++ {
			out[g] = append(out[g], s)
		}
	}
	return out
}

// Exchange reconciles shared reflector capacity after SolveAll with the
// hierarchical dual-price exchange; it is the Levels ≥ 2 counterpart of
// Coordinate and returns the same Outcome shape (plus the exchange
// telemetry: clearing rounds, distinct contested reflectors, final bid/ask
// gap). Rounds repeat until no leaf is starved and nothing is contested, or
// the round cap hits; a leaf still starved then fails with
// lpmodel.ErrInfeasible exactly like the flat pass.
func (p *Plan) Exchange(solve SolveFunc) (*Outcome, error) {
	k := p.Shards()
	supers := superGroups(k)
	levels := 2
	if p.opts.Levels < 2 {
		// Degenerate single-level exchange: one super holding every leaf.
		supers, levels = [][]int{allShards(k)}, 1
	}
	out := &Outcome{Levels: levels}
	contestedSeen := make(map[int]bool)

	for round := 1; round <= p.opts.Rounds; round++ {
		use := p.usage()
		contested, anyStarved := p.contested(use)
		if !anyStarved && len(contested) == 0 {
			// Cleared: the last round's re-solves satisfied every bid, so the
			// final bid/ask gap is zero regardless of what the last clearing
			// pass quoted before those re-solves landed.
			out.ExchangeGap = 0
			break
		}
		out.ExchangeRounds = round
		for i := range contested {
			contestedSeen[i] = true
		}
		changed, gap := p.clearCapacity(use, contested, supers)
		out.ExchangeGap = gap
		if len(changed) == 0 {
			break // nothing movable: only the starved-check below can object
		}
		for _, s := range changed {
			p.Subs[s].Fanout = append([]float64(nil), p.Alloc[s]...)
		}
		prev := make([]*SolveResult, k)
		copy(prev, p.results)
		if err := p.solveShards(changed, solve); err != nil {
			return nil, err
		}
		out.Resolves += len(changed)
		for s := range p.starved {
			if p.starved[s] {
				p.starveRounds[s]++
			} else {
				p.starveRounds[s] = 0
			}
			if !p.starved[s] && p.hungry(s) {
				p.hungryRounds[s]++
			} else {
				p.hungryRounds[s] = 0
			}
		}
		for _, s := range changed {
			r := p.results[s]
			if r == nil || prev[s] == nil {
				continue
			}
			improved := r.LPCost < prev[s].LPCost*(1-1e-3) ||
				r.Audit.WeightFactor > prev[s].Audit.WeightFactor+1e-9
			if !improved {
				p.settled[s] = true
			}
		}
		// The exchange's stopping rule: once every economic bid cleared to
		// within tolerance (and no leaf is starved — recovery always gets
		// another round), the prices have spoken. Residual hunger past this
		// point means the capacity does not exist, not that it sits in the
		// wrong shard, so further rounds would only churn re-solves — this
		// early exit is where the exchange beats the flat pass's
		// settle-by-exhaustion cascade.
		stillStarved := false
		for _, st := range p.starved {
			if st {
				stillStarved = true
			}
		}
		if !stillStarved && gap < exchangeGapTol {
			break
		}
	}
	for s, starved := range p.starved {
		if starved {
			return nil, fmt.Errorf("shard: shard %d still %w after %d exchange rounds",
				s, lpmodel.ErrInfeasible, p.opts.Rounds)
		}
	}
	out.ContestedReflectors = len(contestedSeen)
	p.finishOutcome(out)
	return out, nil
}

// exBid is one leaf's capacity claim at a reflector during a clearing round.
type exBid struct {
	shard   int
	claim   float64 // additional fanout wanted beyond the reserved use
	price   float64 // quoted shadow price (priority and gap weighting)
	starved bool
	rounds  int // starveRounds, for ordering starved claims
	bought  float64
}

// clearCapacity runs one master-clearing round over every contested
// reflector (and every reflector when some leaf is starved — its missing
// capacity may be anywhere in its cheap set). Per reflector: every feasible
// leaf's realized use is reserved; the free residual starts distributed as
// the leaves' current slack (scaled so the reflector's total allocation
// stays exactly F_i even when rounded designs overshoot an allocation);
// bidders then buy slack in priority order — starved leaves first, then by
// quoted shadow price — intra-super before inter-super. Returns the leaves
// whose allocation materially changed and the round's relative bid/ask gap.
func (p *Plan) clearCapacity(use [][]float64, contested map[int]bool, supers [][]int) ([]int, float64) {
	in := p.In
	_, R, _ := in.Dims()
	k := p.Shards()
	superOf := make([]int, k)
	for g, leaves := range supers {
		for _, s := range leaves {
			superOf[s] = g
		}
	}
	anyStarved := false
	for _, st := range p.starved {
		if st {
			anyStarved = true
		}
	}
	changedShard := make([]bool, k)
	bidValue, unmetValue := 0.0, 0.0

	price := make([]float64, k)
	slack := make([]float64, k)
	alloc := make([]float64, k)
	for i := 0; i < R; i++ {
		F := in.Fanout[i]
		if F <= 0 {
			continue
		}
		maxPrice := 0.0
		priceDemand := false
		for s := 0; s < k; s++ {
			price[s] = 0
			if r := p.results[s]; r != nil && i < len(r.CapPrice) {
				price[s] = r.CapPrice[i]
			}
			if price[s] > maxPrice {
				maxPrice = price[s]
			}
			if price[s] > 0 && !p.starved[s] && p.hungry(s) {
				priceDemand = true
			}
		}
		// A positive shadow price from a hungry leaf opens the reflector for
		// clearing even when the use-based contested test misses it — in
		// particular at reflectors where the bidder holds NO allocation yet,
		// which the saturation heuristic is structurally blind to. Without
		// this, hunger migrates reflector-by-reflector (saturate → contest →
		// re-bid) and the exchange burns a round per hop exactly like the
		// flat pass.
		if !contested[i] && !anyStarved && !priceDemand {
			continue
		}
		if maxPrice <= 0 {
			maxPrice = 1 // no leaf quoted a price: gap weighting falls back to 1
		}
		// Reserve realized use; everything else is sellable slack. The scale
		// α ≤ 1 keeps Σ alloc = F when a rounded design overshoots its
		// allocation (use > alloc zeroes that leaf's slack but still counts
		// fully as reserved).
		free, slackTot := F, 0.0
		for s := 0; s < k; s++ {
			if p.starved[s] {
				slack[s] = p.Alloc[s][i]
			} else {
				free -= use[s][i]
				slack[s] = math.Max(p.Alloc[s][i]-use[s][i], 0)
			}
			slackTot += slack[s]
		}
		if free <= 1e-12 || slackTot <= 0 {
			continue // nothing movable without displacing live service
		}
		scale := free / slackTot
		for s := 0; s < k; s++ {
			base := 0.0
			if !p.starved[s] {
				base = use[s][i]
			}
			alloc[s] = base + slack[s]*scale
		}
		// Collect bids. A bidder keeps its own (scaled) slack and claims
		// capacity on top; sellers are everyone else, their slack on offer.
		var bids []exBid
		bidder := make([]bool, k)
		for s := 0; s < k; s++ {
			switch {
			case p.starved[s]:
				bids = append(bids, exBid{
					shard:   s,
					claim:   p.aff[s][i] + (0.2*F+1)*float64(int(1)<<p.starveRounds[s]),
					price:   maxPrice, // a starved leaf outbids every price
					starved: true,
					rounds:  p.starveRounds[s],
				})
				bidder[s] = true
			case p.hungry(s) && (price[s] > 0 ||
				(p.Alloc[s][i] > 1e-9 && use[s][i] >= saturationFrac*p.Alloc[s][i])):
				// A leaf that stayed hungry through a cleared round wasn't
				// asking for enough: double its claim each such round so
				// acquisition converges in O(log) rounds instead of creeping
				// up a doubling at a time.
				esc := float64(int(1) << min(p.hungryRounds[s], 6))
				bids = append(bids, exBid{shard: s, claim: math.Max(use[s][i], 1) * esc, price: price[s]})
				bidder[s] = true
			}
		}
		if len(bids) == 0 {
			continue
		}
		sort.SliceStable(bids, func(a, b int) bool {
			ba, bb := &bids[a], &bids[b]
			if ba.starved != bb.starved {
				return ba.starved
			}
			if ba.starved && ba.rounds != bb.rounds {
				return ba.rounds > bb.rounds
			}
			if ba.price != bb.price {
				return ba.price > bb.price
			}
			return ba.shard < bb.shard
		})
		// Sellers sell cheapest-valued slack first.
		sellers := make([]int, 0, k)
		for s := 0; s < k; s++ {
			if !bidder[s] && slack[s] > 0 {
				sellers = append(sellers, s)
			}
		}
		sort.SliceStable(sellers, func(a, b int) bool {
			if price[sellers[a]] != price[sellers[b]] {
				return price[sellers[a]] < price[sellers[b]]
			}
			return sellers[a] < sellers[b]
		})
		// Starved leaves are fed FIRST and proportionally to claim — the
		// flat pass's recovery rule, kept verbatim so several simultaneously
		// starved leaves all eat this round instead of the highest-priority
		// one exhausting the sellers (its escalated claim is an emergency
		// over-ask, not a measured demand).
		starvedClaim, sellable := 0.0, 0.0
		for b := range bids {
			if bids[b].starved {
				starvedClaim += bids[b].claim
			}
		}
		for _, s := range sellers {
			avail := alloc[s]
			if !p.starved[s] {
				avail -= use[s][i]
			}
			sellable += math.Max(avail, 0)
		}
		if starvedClaim > 0 && sellable > 0 {
			share := math.Min(sellable/starvedClaim, 1)
			for b := range bids {
				bid := &bids[b]
				if !bid.starved {
					continue
				}
				want := bid.claim * share
				for _, s := range sellers {
					if bid.bought >= want {
						break
					}
					avail := alloc[s]
					if !p.starved[s] {
						avail -= use[s][i]
					}
					if avail <= 0 {
						continue
					}
					take := math.Min(avail, want-bid.bought)
					alloc[s] -= take
					alloc[bid.shard] += take
					bid.bought += take
				}
			}
		}
		// The ask side left for economic bids once starved recovery has eaten.
		econAsk := 0.0
		for _, s := range sellers {
			avail := alloc[s]
			if !p.starved[s] {
				avail -= use[s][i]
			}
			econAsk += math.Max(avail, 0)
		}
		// Level 1: each price bidder buys from sellers of its own
		// super-shard; level 2: unmet bids cross super boundaries.
		for pass := 0; pass < 2; pass++ {
			for b := range bids {
				bid := &bids[b]
				if bid.starved {
					continue
				}
				for _, s := range sellers {
					if bid.bought >= bid.claim {
						break
					}
					if pass == 0 && superOf[s] != superOf[bid.shard] {
						continue
					}
					avail := alloc[s]
					if !p.starved[s] {
						avail -= use[s][i]
					}
					if avail <= 0 {
						continue
					}
					take := math.Min(avail, bid.claim-bid.bought)
					alloc[s] -= take
					alloc[bid.shard] += take
					bid.bought += take
				}
			}
		}
		// The bid/ask gap weighs the ECONOMIC bids only, and only up to the
		// ask side that actually existed: a starved leaf's escalated claim is
		// an over-ask by design, and demand beyond the market's sellable
		// slack is not a spread the exchange could ever close — every holder
		// is either using its capacity or equally hungry, so the shortfall is
		// genuine scarcity, not misallocation. Counting either tail would
		// report divergence exactly when the exchange has finished moving
		// everything movable.
		for b := range bids {
			if bids[b].starved {
				continue
			}
			counted := math.Min(bids[b].claim, econAsk)
			bidValue += bids[b].price * counted
			unmetValue += bids[b].price * math.Max(counted-bids[b].bought, 0)
		}
		for s := 0; s < k; s++ {
			if diff := alloc[s] - p.Alloc[s][i]; diff > 1e-6*(1+F) || diff < -1e-6*(1+F) {
				changedShard[s] = true
			}
			p.Alloc[s][i] = alloc[s]
		}
	}
	var changed []int
	for s, ch := range changedShard {
		if ch {
			changed = append(changed, s)
		}
	}
	gap := 0.0
	if bidValue > 0 {
		gap = unmetValue / bidValue
	}
	return changed, gap
}
