package pattern

import (
	"fastgr/internal/geom"
	"fastgr/internal/route"
)

// Section IV-F argues the computation-graph-flow formulation "only needs
// additional merge cost when extending more bend points". This file
// implements that extension: 3-bend staircase patterns, evaluated as
// four-stage min-plus chains
//
//	out[lt] = min_{ls,lb,lc} W1[ls] + W2[ls][lb] + W3[lb][lc] + W4[lc][lt]
//
// over candidate bend triples. The Staircase mode's candidate set is the
// hybrid set (all M+N two-bend flows — boundary staircases degenerate into
// Z and L shapes) plus up to MaxStairCands sampled interior (xi, yj)
// staircase pairs, so its optimum never trails the hybrid kernel's.

// MaxStairCands bounds the interior staircase candidates per two-pin net;
// the sampling stride grows with the bounding box to respect it.
const MaxStairCands = 64

// SFlow is one candidate three-bend flow.
type SFlow struct {
	W1 []float64 // L, source leg (includes cbc)
	W2 []float64 // L*L, bend 1
	W3 []float64 // L*L, bend 2
	W4 []float64 // L*L, bend 3
	B1 geom.Point
	B2 geom.Point
	B3 geom.Point
}

// stairCandidates appends sampled interior staircases to a program that
// already holds the full hybrid candidate set.
func (s *Solver) stairCandidates(prog *EdgeProgram) {
	src, dst := prog.TP.Source(), prog.TP.Target()
	lox, hix := geom.Min(src.X, dst.X), geom.Max(src.X, dst.X)
	loy, hiy := geom.Min(src.Y, dst.Y), geom.Max(src.Y, dst.Y)
	m, n := hix-lox-1, hiy-loy-1 // interior coordinate counts
	if m <= 0 || n <= 0 {
		return
	}
	stride := 1
	for (m/stride+1)*(n/stride+1) > MaxStairCands {
		stride++
	}
	start := len(s.sflows)
	for xi := lox + 1; xi < hix; xi += stride {
		for yj := loy + 1; yj < hiy; yj += stride {
			// HVHV: s -(H)-> B1 -(V)-> B2 -(H)-> B3 -(V)-> t, then
			// VHVH: s -(V)-> B1' -(H)-> B2' -(V)-> B3' -(H)-> t.
			s.sflows = append(s.sflows,
				SFlow{B1: geom.Point{X: xi, Y: src.Y}, B2: geom.Point{X: xi, Y: yj}, B3: geom.Point{X: dst.X, Y: yj}},
				SFlow{B1: geom.Point{X: src.X, Y: yj}, B2: geom.Point{X: xi, Y: yj}, B3: geom.Point{X: xi, Y: dst.Y}})
		}
	}
	prog.SFlows = s.sflows[start:]
}

// buildSFlow assembles one staircase flow's weight chain into w.
func (s *Solver) buildSFlow(tp route.TwoPin, f *SFlow, w []float64) {
	L := s.L
	src, dst := tp.Source(), tp.Target()
	down := s.down[tp.Child*L : tp.Child*L+L]

	seg1, seg2, seg3, seg4 := s.legs()
	s.segCosts(src, f.B1, seg1)
	s.segCosts(f.B1, f.B2, seg2)
	s.segCosts(f.B2, f.B3, seg3)
	s.segCosts(f.B3, dst, seg4)

	f.W1, w = w[:L], w[L:]
	f.W2, f.W3, f.W4 = w[:L*L], w[L*L:2*L*L], w[2*L*L:]
	for ls := 1; ls <= L; ls++ {
		f.W1[ls-1] = down[ls-1] + seg1[ls-1]
	}
	s.fillMatrix(f.W2, f.W1, f.B1, seg2)
	s.fillMatrix(f.W3, seg2, f.B2, seg3)
	s.fillMatrix(f.W4, seg3, f.B3, seg4)
}
