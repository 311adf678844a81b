package grid

// Negotiated-congestion history, the mechanism of history-based rip-up and
// reroute (Archer [22], PathFinder): edges that keep overflowing accumulate
// a persistent penalty so successive iterations negotiate nets away from
// chronically contested resources even when their instantaneous congestion
// looks acceptable. FastGR's RRR can run with or without it (Options in
// package core); the history term simply adds to WireCost.

// HistoryWeight scales the accumulated history penalty in WireCost.
const HistoryWeight = 1.0

// EnableHistory allocates the per-wire-edge history store; until called,
// history never affects costs.
func (g *Graph) EnableHistory() {
	if g.history != nil {
		return
	}
	g.history = make([][]float32, g.L)
	for l := 1; l <= g.L; l++ {
		g.history[l-1] = make([]float32, g.numWireEdges(l))
	}
}

// HistoryEnabled reports whether the negotiation store exists.
func (g *Graph) HistoryEnabled() bool { return g.history != nil }

// BumpOverflowHistory adds delta x overflow to every currently overflowed
// wire edge's history — called once per rip-up iteration (a coordinator
// point). Each bumped edge's cost-cache entry is rewritten like a demand
// mutation's; enabling history needs no rewrite because an all-zero history
// store leaves WireCost unchanged.
func (g *Graph) BumpOverflowHistory(delta float64) {
	if g.history == nil {
		return
	}
	for l := 0; l < g.L; l++ {
		for i, c := range g.wireCap[l] {
			if ov := g.wireDem[l][i] - c; ov > 0 {
				g.history[l][i] += float32(delta * float64(ov))
				g.noteWireMutation(l+1, i)
			}
		}
	}
}

// WireHistory returns the accumulated history of one wire edge.
func (g *Graph) WireHistory(l, x, y int) float64 {
	if g.history == nil {
		return 0
	}
	return float64(g.history[l-1][g.WireIndex(l, x, y)])
}
