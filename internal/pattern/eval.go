package pattern

// CPUEvaluator executes computation-graph flows sequentially — the baseline
// CUGR-style execution the paper's GPU kernels are measured against, and the
// functional half of the simulated GPU device (package patterngpu), so the
// two backends return bit-identical results. It keeps its min-plus
// intermediates between calls; one evaluator serves one goroutine.
type CPUEvaluator struct {
	// Ops counts every inner-loop operation of the min-plus stages and the
	// merge steps.
	Ops Ops

	tmp []float64 // 3L: the stage outputs of one candidate flow
	arg []int     // 3L: the argmin rows of each stage
}

// EvalProgram implements Evaluator: every candidate flow runs as a chain of
// vector-matrix min-plus stages (two for Z flows, three for staircases) and
// the candidates merge element-wise (eq. 10), the first candidate winning a
// tie.
func (e *CPUEvaluator) EvalProgram(p *EdgeProgram, val []float64, choices []Choice) {
	L := p.L
	e.tmp, e.arg = grow(e.tmp, 3*L), grow(e.arg, 3*L)
	t1, t2, out := e.tmp[:L], e.tmp[L:2*L], e.tmp[2*L:]
	a1, a2, a3 := e.arg[:L], e.arg[L:2*L], e.arg[2*L:]
	if !p.Hybrid {
		MinPlusVecMat(p.LFlow.W1, p.LFlow.W2, L, val, a1)
		e.Ops.FlowOps += int64(L * L)
		for lt := 0; lt < L; lt++ {
			choices[lt] = Choice{Cand: -1, Ls: a1[lt] + 1}
		}
		return
	}

	for lt := 0; lt < L; lt++ {
		val[lt], choices[lt] = Inf, Choice{}
	}
	for ci := range p.ZFlows {
		f := &p.ZFlows[ci]
		MinPlusVecMat(f.W1, f.W2, L, t1, a1)
		MinPlusVecMat(t1, f.W3, L, out, a2)
		e.Ops.FlowOps += int64(2*L*L + L) // two stages and the merge
		for lt := 0; lt < L; lt++ {
			if out[lt] < val[lt] {
				lb := a2[lt]
				val[lt] = out[lt]
				choices[lt] = Choice{Cand: ci, Ls: a1[lb] + 1, Lb: lb + 1}
			}
		}
	}
	for si := range p.SFlows {
		f := &p.SFlows[si]
		MinPlusVecMat(f.W1, f.W2, L, t1, a1) // over ls -> per lb
		MinPlusVecMat(t1, f.W3, L, t2, a2)   // over lb -> per lc
		MinPlusVecMat(t2, f.W4, L, out, a3)  // over lc -> per lt
		e.Ops.FlowOps += int64(3*L*L + L)
		for lt := 0; lt < L; lt++ {
			if out[lt] < val[lt] {
				lc := a3[lt]
				lb := a2[lc]
				val[lt] = out[lt]
				choices[lt] = Choice{Cand: len(p.ZFlows) + si, Ls: a1[lb] + 1, Lb: lb + 1, Lc: lc + 1}
			}
		}
	}
}

// MinPlusVecMat writes out[j] = min_i w[i] + m[i*L+j] and the argmin rows
// arg[j] — the vector-matrix min-plus product at the heart of the
// computation-graph flows (eq. 7 / eq. 14). Only rows with a finite w[i] are
// visited, in ascending order with a strict comparison, so the first
// minimal row wins a tie and an all-Inf column keeps arg 0: the same values
// and arguments as a column-by-column scan of every row.
func MinPlusVecMat(w, m []float64, L int, out []float64, arg []int) {
	for j := 0; j < L; j++ {
		out[j], arg[j] = Inf, 0
	}
	for i := 0; i < L; i++ {
		wi := w[i]
		if !(wi < Inf) {
			continue
		}
		row := m[i*L : i*L+L]
		for j, v := range row {
			if s := wi + v; s < out[j] {
				out[j], arg[j] = s, i
			}
		}
	}
}
