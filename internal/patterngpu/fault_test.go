package patterngpu

import (
	"reflect"
	"testing"

	"fastgr/internal/fault"
	"fastgr/internal/gpu"
	"fastgr/internal/obs"
	"fastgr/internal/pattern"
)

func faultCfg() pattern.Config {
	return pattern.Config{Mode: pattern.Hybrid, Selection: true, T1: 4, T2: 50}
}

func TestKernelFallbackBitIdenticalResults(t *testing.T) {
	g, trees := setup(t)
	ref := New(gpu.RTX3090(), faultCfg())
	refBr := ref.RouteBatch(g, trees)

	// Kernel site at probability 1: the (only) batch degrades to the CPU
	// path. Results and SeqOps must match the healthy kernel bit for bit;
	// only the modeled time changes currency.
	reg := obs.NewRegistry()
	r := New(gpu.RTX3090(), faultCfg())
	r.CPU = gpu.XeonGold6226R()
	r.Fault = fault.New(fault.Options{Seed: 1, Probs: map[string]float64{fault.SiteKernel: 1}},
		&obs.Observer{Metrics: reg})
	br := r.RouteBatch(g, trees)
	if !br.CPUFallback {
		t.Fatal("probability-1 kernel fault did not trigger the CPU fallback")
	}
	if !reflect.DeepEqual(br.Results, refBr.Results) {
		t.Fatal("CPU fallback results differ from the kernel's")
	}
	if br.SeqOps != refBr.SeqOps {
		t.Fatalf("fallback SeqOps = %d, kernel SeqOps = %d", br.SeqOps, refBr.SeqOps)
	}
	want := r.CPU.SequentialTime(br.SeqOps)
	if br.KernelTime != want {
		t.Fatalf("fallback KernelTime = %v, want modeled sequential %v", br.KernelTime, want)
	}
	s := reg.Snapshot()
	if inj, deg := s.Counters[obs.MFaultInjected.Name()], s.Counters[obs.MFaultDegraded.Name()]; inj != 1 || deg != 1 {
		t.Fatalf("kernel fault counters injected=%d degraded=%d, want 1/1", inj, deg)
	}
}

func TestSolveExhaustionDegradesWholeBatch(t *testing.T) {
	g, trees := setup(t)
	// A solve-site probability of 1 exhausts every net's retries; the
	// first collected WorkError fails the kernel → CPU fallback, and the
	// batch still returns correct results.
	r := New(gpu.RTX3090(), faultCfg())
	r.CPU = gpu.XeonGold6226R()
	r.Workers = 4
	reg := obs.NewRegistry()
	r.Fault = fault.New(fault.Options{Seed: 9, Probs: map[string]float64{fault.SiteSolve: 1}},
		&obs.Observer{Metrics: reg})
	br := r.RouteBatch(g, trees)
	if !br.CPUFallback {
		t.Fatal("solve exhaustion should degrade the batch")
	}
	refBr := New(gpu.RTX3090(), faultCfg()).RouteBatch(g, trees)
	if !reflect.DeepEqual(br.Results, refBr.Results) {
		t.Fatal("degraded batch results differ from the healthy kernel's")
	}
	s := reg.Snapshot()
	inj := s.Counters[obs.MFaultInjected.Name()]
	rec := s.Counters[obs.MFaultRecovered.Name()]
	deg := s.Counters[obs.MFaultDegraded.Name()]
	if inj != rec+deg {
		t.Fatalf("accounting equation violated: injected=%d recovered=%d degraded=%d", inj, rec, deg)
	}
}

func TestKernelFallbackDeterministicAcrossWorkers(t *testing.T) {
	g, trees := setup(t)
	run := func(workers int) BatchResult {
		r := New(gpu.RTX3090(), faultCfg())
		r.CPU = gpu.XeonGold6226R()
		r.Workers = workers
		r.Fault = fault.New(fault.Options{Seed: 4, Probs: map[string]float64{
			fault.SiteSolve:  0.05,
			fault.SiteKernel: 0.5,
		}}, nil)
		return r.RouteBatch(g, trees)
	}
	ref := run(1)
	for _, w := range []int{2, 8} {
		got := run(w)
		if !reflect.DeepEqual(got, ref) {
			t.Fatalf("faulted batch at %d workers differs from 1 worker (fallback=%v vs %v)",
				w, got.CPUFallback, ref.CPUFallback)
		}
	}
}

func TestArmedZeroProbabilityMatchesUncontained(t *testing.T) {
	g, trees := setup(t)
	plain := New(gpu.RTX3090(), faultCfg())
	plain.Workers = 4
	ref := plain.RouteBatch(g, trees)

	armed := New(gpu.RTX3090(), faultCfg())
	armed.Workers = 4
	armed.Fault = fault.New(fault.Options{Seed: 77, Probs: fault.UniformProbs(0)}, nil)
	got := armed.RouteBatch(g, trees)
	if got.CPUFallback {
		t.Fatal("zero-probability injection triggered a fallback")
	}
	if !reflect.DeepEqual(got, ref) {
		t.Fatal("armed-but-silent containment changed the batch result")
	}
}
