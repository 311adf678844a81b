package stt

import (
	"math"
	"slices"

	"fastgr/internal/geom"
)

// Exact rectilinear Steiner minimal trees for small nets — the role FLUTE's
// lookup tables play in CUGR ([17]; the published tables are not
// redistributable, but for the 2-4 pin nets that dominate standard-cell
// netlists exact construction is cheap): Hanan's theorem guarantees an RSMT
// using only Hanan-grid points, and a net with k pins needs at most k-2
// Steiner points, so enumerating Hanan subsets of size <= k-2 and taking
// the best spanning tree is exact.

// exactThreshold is the largest distinct-position count routed exactly;
// larger nets fall back to Prim + Steinerization.
const exactThreshold = 4

// exactMaxPts bounds a candidate's points: the pins and k-2 Steiner points.
const exactMaxPts = 2*exactThreshold - 2

// exactRSMT replaces the builder's pins (at most exactThreshold distinct
// positions) with the points of an optimal rectilinear Steiner tree — pins
// first, chosen Steiner points appended — and sets the adjacency to their
// MST. Candidates are priced on fixed arrays; the first strictly shortest
// wins and only its adjacency is built.
func (b *builder) exactRSMT() {
	numPins := len(b.pos)
	var hanan [exactThreshold * exactThreshold]geom.Point
	nh := hananPoints(b.pos, &hanan)
	maxSteiner := numPins - 2

	var pts [exactMaxPts]geom.Point
	copy(pts[:], b.pos)
	price := func(steiner ...geom.Point) int {
		return priceMST(pts[:numPins+copy(pts[numPins:], steiner)])
	}
	bestLen, bestI, bestJ := price(), -1, -1
	if maxSteiner >= 1 {
		for i := 0; i < nh; i++ {
			if l := price(hanan[i]); l < bestLen {
				bestLen, bestI, bestJ = l, i, -1
			}
		}
	}
	if maxSteiner >= 2 {
		for i := 0; i < nh; i++ {
			for j := i + 1; j < nh; j++ {
				if l := price(hanan[i], hanan[j]); l < bestLen {
					bestLen, bestI, bestJ = l, i, j
				}
			}
		}
	}
	if bestI >= 0 {
		b.pos = append(b.pos, hanan[bestI])
	}
	if bestJ >= 0 {
		b.pos = append(b.pos, hanan[bestJ])
	}
	b.primMST()
	b.pruneUselessSteiner(numPins)
}

// priceMST returns the length of a Manhattan MST over at most exactMaxPts
// points without allocating.
func priceMST(pts []geom.Point) int {
	var inTree [exactMaxPts]bool
	var dist [exactMaxPts]int
	n := len(pts)
	for i := 1; i < n; i++ {
		dist[i] = math.MaxInt
	}
	total := 0
	for k := 0; k < n; k++ {
		best := -1
		for i := 0; i < n; i++ {
			if !inTree[i] && (best < 0 || dist[i] < dist[best]) {
				best = i
			}
		}
		inTree[best] = true
		total += dist[best]
		for i := 0; i < n; i++ {
			if !inTree[i] {
				dist[i] = min(dist[i], geom.ManhattanDist(pts[best], pts[i]))
			}
		}
	}
	return total
}

// hananPoints fills out with the Hanan grid of the pins minus the pins
// themselves, x-major in ascending coordinates, and returns the count.
func hananPoints(pins []geom.Point, out *[exactThreshold * exactThreshold]geom.Point) int {
	var xs, ys [exactThreshold]int
	nx, ny := 0, 0
	for _, p := range pins {
		if !slices.Contains(xs[:nx], p.X) {
			xs[nx], nx = p.X, nx+1
		}
		if !slices.Contains(ys[:ny], p.Y) {
			ys[ny], ny = p.Y, ny+1
		}
	}
	slices.Sort(xs[:nx])
	slices.Sort(ys[:ny])
	n := 0
	for _, x := range xs[:nx] {
		for _, y := range ys[:ny] {
			if p := (geom.Point{X: x, Y: y}); !slices.Contains(pins, p) {
				out[n], n = p, n+1
			}
		}
	}
	return n
}

// pruneUselessSteiner removes Steiner points of degree <= 2: a degree-1
// Steiner leaf never survives an optimal tree, and a degree-2 point just
// splits an edge, constraining pattern routing for no benefit (contract it).
// A removed point's slot takes the last point.
func (b *builder) pruneUselessSteiner(numPins int) {
	for {
		victim := -1
		for i := numPins; i < len(b.pos); i++ {
			if len(b.adj[i]) <= 2 {
				victim = i
				break
			}
		}
		if victim < 0 {
			return
		}
		var nbs [2]int32
		k := copy(nbs[:], b.adj[victim])
		for _, nb := range nbs[:k] {
			b.removeEdge(int32(victim), nb)
		}
		if k == 2 {
			b.addEdge(nbs[0], nbs[1])
		}
		last := len(b.pos) - 1
		if victim != last {
			b.pos[victim] = b.pos[last]
			// Swap, not copy: the emptied list keeps its own storage.
			b.adj[victim], b.adj[last] = b.adj[last], b.adj[victim]
			for _, nb := range b.adj[victim] {
				for k, x := range b.adj[nb] {
					if x == int32(last) {
						b.adj[nb][k] = int32(victim)
					}
				}
			}
		}
		b.pos = b.pos[:last]
		b.adj = b.adj[:last]
	}
}
