package pattern

import "math"

// computeDown fills cbc(u, ·) — eq. 2 extended with the node's own pin
// access: for every access layer la, the cheapest way to terminate all of
// u's already-routed children edges and u's pins onto a single via stack at
// u's position that also reaches la.
//
// The enumeration over stack intervals [lo,hi] is exact: any solution's via
// stack at u spans some layer interval containing la, every chosen child
// connection layer, and every pin layer; conversely every such interval
// yields a feasible solution, so minimizing over intervals (with each child
// independently picking its best layer inside) is the true minimum.
//
// Each interval is costed once: for a fixed lo, the via-stack sum and every
// child's minimum are running folds as hi grows (the same additions and
// strict comparisons as a fresh scan of [lo, hi]). cbc(la) is then the first
// strict minimum over the intervals containing la, in (lo, hi) ascending
// order. DownOps keeps counting the per-la enumeration this replaces: an
// interval is met once per la inside it, and each meeting scans hi-lo+1
// layers of every child up to the first one with no finite layer.
func (s *Solver) computeDown(u int) {
	node := &s.tree.Nodes[u]
	L := s.L

	loMax, hiMin := L, 1
	if node.IsPin() {
		loMax, hiMin = node.PinLayers[0], node.PinLayers[0]
		for _, pl := range node.PinLayers[1:] {
			loMax = min(loMax, pl)
			hiMin = max(hiMin, pl)
		}
	}

	via := s.via
	for b := 1; b < L; b++ {
		via[b] = s.g.ViaEdgeCost(node.Pos.X, node.Pos.Y, b)
	}
	children := node.Children
	s.mins = grow(s.mins, len(children))
	mins := s.mins
	for lo := 1; lo <= loMax; lo++ {
		stack := 0.0
		for ci := range mins {
			mins[ci] = Inf
		}
		for hi := lo; hi <= L; hi++ {
			if hi > lo {
				stack += via[hi-1]
			}
			for ci, c := range children {
				if v := s.edgeVal[c*L+hi-1]; v < mins[ci] {
					mins[ci] = v
				}
			}
			if hi < hiMin {
				continue
			}
			cost, scanned := stack, int64(0)
			for _, m := range mins {
				scanned++
				if math.IsInf(m, 1) {
					cost = Inf
					break
				}
				cost += m
			}
			n := int64(hi - lo + 1)
			s.ops.DownOps += n * n * scanned
			s.ival[(lo-1)*L+hi-1] = cost
		}
	}

	down := s.down[u*L : u*L+L]
	picks := s.downPick[u*L : u*L+L]
	for la := 1; la <= L; la++ {
		best, pick := Inf, downChoice{}
		for lo := 1; lo <= min(la, loMax); lo++ {
			row := s.ival[(lo-1)*L : lo*L]
			for hi := max(la, hiMin); hi <= L; hi++ {
				if row[hi-1] < best {
					best, pick = row[hi-1], downChoice{lo: lo, hi: hi}
				}
			}
		}
		down[la-1] = best
		picks[la-1] = pick
	}
}

// childLayer is the layer at which child c joins a via stack spanning
// [lo, hi]: its cheapest, the lowest on ties.
func (s *Solver) childLayer(c, lo, hi int) int {
	ev := s.edgeVal[c*s.L : c*s.L+s.L]
	bl, bc := 0, Inf
	for l := lo; l <= hi; l++ {
		if ev[l-1] < bc {
			bc, bl = ev[l-1], l
		}
	}
	return bl
}
