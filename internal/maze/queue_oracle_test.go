package maze

import (
	"math"
	"math/rand"
	"testing"

	"fastgr/internal/design"
	"fastgr/internal/grid"
	"fastgr/internal/route"
	"fastgr/internal/stt"
)

// pq is the binary min-heap the maze kernel used before the radix queue,
// kept as the reference the radix queue must match pop for pop. It orders
// by (f, node); the sift operations mirror container/heap's algorithm.
type pq []pqItem

type pqItem struct {
	node int32
	f    float64
}

func (a pqItem) before(b pqItem) bool {
	return a.f < b.f || (a.f == b.f && a.node < b.node)
}

func (q *pq) push(it pqItem) {
	*q = append(*q, it)
	q.up(len(*q) - 1)
}

func (q *pq) pop() pqItem {
	h := *q
	n := len(h) - 1
	h[0], h[n] = h[n], h[0]
	q.down(0, n)
	it := h[n]
	*q = h[:n]
	return it
}

func (q *pq) up(j int) {
	h := *q
	for j > 0 {
		i := (j - 1) / 2
		if !h[j].before(h[i]) {
			break
		}
		h[i], h[j] = h[j], h[i]
		j = i
	}
}

func (q *pq) down(i, n int) {
	h := *q
	for {
		j1 := 2*i + 1
		if j1 >= n {
			break
		}
		j := j1
		if j2 := j1 + 1; j2 < n && h[j2].before(h[j1]) {
			j = j2
		}
		if !h[j].before(h[i]) {
			break
		}
		h[i], h[j] = h[j], h[i]
		i = j
	}
}

// queuePair drives the radix queue and the reference heap in lockstep and
// fails on the first pop that differs. It also holds the radix queue to its
// arena bound: chunks allocated never exceed what the peak item count fills
// plus one partly filled chunk per bucket.
type queuePair struct {
	t    testing.TB
	q    radixQueue
	ref  pq
	peak int
}

func (p *queuePair) push(f float64, node int32) {
	p.q.push(qItem{k: math.Float64bits(f), node: node})
	p.ref.push(pqItem{node: node, f: f})
	if len(p.ref) > p.peak {
		p.peak = len(p.ref)
	}
}

func (p *queuePair) pop() pqItem {
	p.t.Helper()
	if p.q.empty() != (len(p.ref) == 0) {
		p.t.Fatalf("radix queue empty = %v with %d items in the reference", p.q.empty(), len(p.ref))
	}
	want, got := p.ref.pop(), p.q.pop()
	if got.node != want.node || got.k != math.Float64bits(want.f) {
		p.t.Fatalf("pop = (%v, node %d), reference (%v, node %d)",
			math.Float64frombits(got.k), got.node, want.f, want.node)
	}
	return want
}

func (p *queuePair) drain() {
	p.t.Helper()
	for len(p.ref) > 0 {
		p.pop()
	}
	if !p.q.empty() {
		p.t.Fatal("radix queue holds items the reference does not")
	}
	if max := (p.peak+chunkCap-1)/chunkCap + 64; p.q.chunks > max {
		p.t.Fatalf("arena grew to %d chunks for a peak of %d items; the bound is %d", p.q.chunks, p.peak, max)
	}
}

// TestQueueMatchesHeapOnTies replays random monotone traces — every key at
// or above the last pop, drawn from a handful of exactly representable
// steps so most keys collide — across queue resets.
func TestQueueMatchesHeapOnTies(t *testing.T) {
	steps := []float64{0, 0, 0, 0.25, 0.5, 1, 1, 2, 48.5}
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		p := &queuePair{t: t}
		for round := 0; round < 3; round++ {
			p.q.reset()
			p.ref = p.ref[:0]
			last := float64(rng.Intn(4))
			for op := 0; op < 4000; op++ {
				if len(p.ref) == 0 || rng.Intn(5) < 3 {
					p.push(last+steps[rng.Intn(len(steps))], int32(rng.Intn(64)))
				} else {
					last = p.pop().f
				}
			}
			if round == 2 {
				p.drain()
			}
		}
	}
}

// TestQueueKeysAtAndBelowLastPop covers the pushes a monotone radix heap has
// no bucket for: keys equal to the last popped key and one ulp below it,
// which must pop before everything above them, in (key, node) order.
func TestQueueKeysAtAndBelowLastPop(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		p := &queuePair{t: t}
		for i := 0; i < 200; i++ {
			p.push(1+rng.Float64()*8, int32(rng.Intn(1000)))
		}
		for op := 0; op < 6000 && len(p.ref) > 0; op++ {
			last := p.pop().f
			switch rng.Intn(6) {
			case 0:
				p.push(last, int32(rng.Intn(1000)))
			case 1:
				p.push(math.Nextafter(last, 0), int32(rng.Intn(1000)))
			case 2:
				below := math.Nextafter(last, 0)
				p.push(math.Nextafter(below, 0), int32(rng.Intn(1000)))
				p.push(below, int32(rng.Intn(1000)))
				p.push(last, int32(rng.Intn(1000)))
			case 3:
				p.push(last+rng.Float64(), int32(rng.Intn(1000)))
				p.push(math.Nextafter(last, math.Inf(1)), int32(rng.Intn(1000)))
			}
		}
		p.drain()
	}
}

// TestQueueMatchesHeapOnRealTrace records every frontier push and pop of a
// real 18test5m connection search on a congested grid — the longest two-pin
// net of a slice of the design, so the trace is one pass on one queue — and
// replays it through both queues.
func TestQueueMatchesHeapOnRealTrace(t *testing.T) {
	d := design.MustGenerate("18test5m", 0.004)
	g := warm(grid.NewFromDesign(d))
	s := NewSearch()
	for _, n := range d.Nets[:120] {
		r, _, err := s.RouteNet(g, n.ID, route.PinTerminals(stt.Build(n)), n.BBox().Inflate(3))
		if err != nil {
			t.Fatal(err)
		}
		r.Commit(g)
	}
	g.WarmCostCache()

	var net *design.Net
	for _, n := range d.Nets[120:] {
		if len(n.Pins) == 2 && (net == nil || n.BBox().HPWL() > net.BBox().HPWL()) {
			net = n
		}
	}
	type op struct {
		push bool
		it   qItem
	}
	var trace []op
	s.trace = func(push bool, it qItem) { trace = append(trace, op{push, it}) }
	if _, _, err := s.RouteNet(g, net.ID, route.PinTerminals(stt.Build(net)), net.BBox().Inflate(8)); err != nil {
		t.Fatal(err)
	}
	if len(trace) < 1000 {
		t.Fatalf("trace of net %s has only %d operations", net.Name, len(trace))
	}

	p := &queuePair{t: t}
	for i, o := range trace {
		f := math.Float64frombits(o.it.k)
		if o.push {
			p.push(f, o.it.node)
		} else if got := p.pop(); got.node != o.it.node || got.f != f {
			t.Fatalf("op %d: replay popped (%v, node %d), the search saw (%v, node %d)",
				i, got.f, got.node, f, o.it.node)
		}
	}
	t.Logf("net %s: %d operations, peak %d items, %d chunks", net.Name, len(trace), p.peak, p.q.chunks)
	p.drain()
}

// FuzzQueueOrder feeds arbitrary push/pop programs to both queues. Each
// input byte is one operation: the low three bits pick a pop or where the
// pushed key sits relative to the last popped one (below, at, one ulp
// above, or further up by a step with many exact ties), the rest the node.
func FuzzQueueOrder(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0x0a, 0x13, 0x1c, 0x00, 0x25, 0x2e, 0x00, 0x00, 0x37, 0x00})
	f.Add([]byte("monotone radix queue in a chunk arena"))
	seeded := make([]byte, 4096)
	rand.New(rand.NewSource(23)).Read(seeded)
	f.Add(seeded)
	f.Fuzz(func(t *testing.T, prog []byte) {
		p := &queuePair{t: t}
		last := 1.0
		for _, b := range prog {
			node := int32(b >> 3)
			switch b & 7 {
			case 0, 1:
				if len(p.ref) > 0 {
					last = p.pop().f
				}
			case 2:
				p.push(math.Nextafter(last, 0), node)
			case 3:
				p.push(last, node)
			case 4:
				p.push(math.Nextafter(last, math.Inf(1)), node)
			case 5:
				p.push(last+0.25*float64(node%4), node)
			case 6:
				p.push(last+float64(node), node)
			case 7:
				p.push(last*(1+float64(node)/1024), node)
			}
		}
		p.drain()
	})
}
