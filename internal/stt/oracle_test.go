package stt

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"testing"
	"unsafe"

	"fastgr/internal/design"
	"fastgr/internal/geom"
)

// workloadDesigns are the designs of the end-to-end benchmark's four
// workloads (maze_5l, pattern_9l, sharded_19m, daemon_mix).
var workloadDesigns = []struct {
	name  string
	scale float64
}{{"18test5m", 0.05}, {"18test5", 0.2}, {"19test9m", 0.005}, {"18test5m", 0.003}}

// diffRef reports the first difference between a tree and the reference
// builder's: node order, positions, parents, child order and pin-layer
// order must all agree.
func diffRef(got *Tree, want *refTree) error {
	if got.NetID != want.NetID || got.Root != want.Root || got.Len() != len(want.Nodes) {
		return fmt.Errorf("net %d root %d, %d nodes; reference net %d root %d, %d nodes",
			got.NetID, got.Root, got.Len(), want.NetID, want.Root, len(want.Nodes))
	}
	for u := range want.Nodes {
		w := &want.Nodes[u]
		if got.Pos(u) != w.Pos || got.Parent(u) != w.Parent {
			return fmt.Errorf("node %d at %v parent %d; reference at %v parent %d",
				u, got.Pos(u), got.Parent(u), w.Pos, w.Parent)
		}
		if !slices.Equal(widen(got.Children(u)), w.Children) {
			return fmt.Errorf("node %d children %v; reference %v", u, got.Children(u), w.Children)
		}
		if !slices.Equal(widen(got.PinLayers(u)), w.PinLayers) {
			return fmt.Errorf("node %d pin layers %v; reference %v", u, got.PinLayers(u), w.PinLayers)
		}
	}
	return nil
}

func widen(s []int32) []int {
	out := make([]int, len(s))
	for i, v := range s {
		out[i] = int(v)
	}
	return out
}

// fixedEst is a deterministic, position-dependent congestion estimate, so
// Shift has something to move Steiner points for.
type fixedEst struct{}

func (fixedEst) HSeg(y, x1, x2 int) float64 { return 0 }
func (fixedEst) VSeg(x, y1, y2 int) float64 { return 0 }
func (fixedEst) LPathCost(a, b geom.Point) float64 {
	h := (a.X*7 + a.Y*13 + b.X*3 + b.Y*5) & 15
	return float64(geom.ManhattanDist(a, b)) + float64(h)*0.25
}

// checkAgainstRef builds the net both ways and compares the trees before
// and after Shift; the flat tree must also pass Validate.
func checkAgainstRef(net *design.Net) error {
	got, want := Build(net), refBuild(net)
	if err := diffRef(got, want); err != nil {
		return fmt.Errorf("built: %w", err)
	}
	if err := got.Validate(net); err != nil {
		return err
	}
	got.Shift(fixedEst{})
	want.refShift(fixedEst{})
	if err := diffRef(got, want); err != nil {
		return fmt.Errorf("shifted: %w", err)
	}
	return nil
}

// TestMatchesReferenceOnWorkloadDesigns: every net of the four workload
// designs builds and shifts to the reference builder's tree.
func TestMatchesReferenceOnWorkloadDesigns(t *testing.T) {
	for _, w := range workloadDesigns {
		d := design.MustGenerate(w.name, w.scale)
		for _, net := range d.Nets {
			if err := checkAgainstRef(net); err != nil {
				t.Fatalf("%s@%v net %s (%d pins): %v", w.name, w.scale, net.Name, len(net.Pins), err)
			}
		}
	}
}

// randomNet draws a net of 1..40 pins in one of the shapes that stress
// merging and degenerate geometry: a small box (duplicate positions and
// layers), one row or column (collinear pins), or one position.
func randomNet(rng *rand.Rand) *design.Net {
	net := &design.Net{ID: rng.Intn(100), Name: "r"}
	k := 1 + rng.Intn(40)
	shape, span := rng.Intn(4), 1+rng.Intn(60)
	x0, y0 := rng.Intn(100), rng.Intn(100)
	for len(net.Pins) < k {
		p := geom.Point{X: x0 + rng.Intn(span), Y: y0 + rng.Intn(span)}
		switch shape {
		case 1:
			p.Y = y0
		case 2:
			p.X = x0
		case 3:
			p = geom.Point{X: x0, Y: y0}
		}
		net.Pins = append(net.Pins, design.Pin{Pos: p, Layer: 1 + rng.Intn(3)})
	}
	return net
}

func TestMatchesReferenceOnRandomNets(t *testing.T) {
	rng := rand.New(rand.NewSource(48))
	for i := 0; i < 4000; i++ {
		net := randomNet(rng)
		if err := checkAgainstRef(net); err != nil {
			t.Fatalf("net %d %v: %v", i, net.Pins, err)
		}
	}
}

// FuzzBuild: for any pin set, the flat tree equals the reference builder's
// before and after Shift and passes Validate. Each three input bytes are a
// pin: x and y in a 32x32 box, layer 1..4.
func FuzzBuild(f *testing.F) {
	f.Add([]byte{0, 0, 0, 5, 3, 1})
	f.Add([]byte{0, 0, 0, 10, 0, 0, 5, 8, 0})
	f.Add([]byte{5, 0, 0, 5, 10, 1, 0, 5, 2, 10, 5, 3})
	f.Add([]byte{1, 1, 0, 1, 1, 1, 4, 4, 0})
	f.Add([]byte{7, 7, 2, 7, 7, 2, 7, 7, 3})
	f.Add([]byte{0, 3, 0, 4, 3, 0, 9, 3, 1, 12, 3, 1, 20, 3, 0})
	f.Add([]byte{2, 8, 0, 9, 1, 1, 5, 5, 2, 30, 30, 3, 17, 4, 0, 11, 22, 1, 3, 3, 2})
	f.Fuzz(func(t *testing.T, data []byte) {
		net := &design.Net{ID: 1, Name: "f"}
		for i := 0; i+2 < len(data) && len(net.Pins) < 40; i += 3 {
			net.Pins = append(net.Pins, design.Pin{
				Pos:   geom.Point{X: int(data[i] % 32), Y: int(data[i+1] % 32)},
				Layer: 1 + int(data[i+2]%4),
			})
		}
		if len(net.Pins) == 0 {
			return
		}
		if err := checkAgainstRef(net); err != nil {
			t.Fatalf("%v: %v", net.Pins, err)
		}
	})
}

// TestValidateRejectsWrongPinLayers: a tree whose pins keep their positions
// but change, lose or gain a layer is not the net's tree.
func TestValidateRejectsWrongPinLayers(t *testing.T) {
	net := &design.Net{ID: 3, Name: "v", Pins: []design.Pin{
		{Pos: geom.Point{X: 0, Y: 0}, Layer: 1},
		{Pos: geom.Point{X: 0, Y: 0}, Layer: 2},
		{Pos: geom.Point{X: 10, Y: 0}, Layer: 1},
		{Pos: geom.Point{X: 5, Y: 8}, Layer: 3},
	}}
	if err := Build(net).Validate(net); err != nil {
		t.Fatal(err)
	}
	tamper := map[string]func(tr *Tree){
		"moved layer": func(tr *Tree) { tr.PinLayers(0)[1] = 3 },
		"lost layer":  func(tr *Tree) { tr.nodes[0].pinsEnd-- },
	}
	for name, f := range tamper {
		tr := Build(net)
		f(tr)
		if tr.Validate(net) == nil {
			t.Errorf("%s: tampered tree accepted", name)
		}
	}
	short := *net
	short.Pins = net.Pins[:3]
	if Build(net).Validate(&short) == nil {
		t.Error("tree with a pin the net lacks accepted")
	}
}

// residentBytes sums the bytes reachable from v: its own size plus, for
// every slice and pointer it holds, the backing store at capacity.
func residentBytes(v reflect.Value) int {
	size := int(v.Type().Size())
	switch v.Kind() {
	case reflect.Pointer:
		if !v.IsNil() {
			size += residentBytes(v.Elem())
		}
	case reflect.Struct:
		size = 0
		for i := 0; i < v.NumField(); i++ {
			size += residentBytes(v.Field(i))
		}
		size += int(v.Type().Size()) - fieldBytes(v.Type())
	case reflect.Slice:
		if v.Cap() > 0 {
			full := v.Slice3(0, v.Cap(), v.Cap())
			for i := 0; i < full.Len(); i++ {
				size += residentBytes(full.Index(i))
			}
		}
	}
	return size
}

// fieldBytes is the sum of a struct's field sizes (its padding is the rest).
func fieldBytes(t reflect.Type) int {
	n := 0
	for i := 0; i < t.NumField(); i++ {
		n += int(t.Field(i).Type.Size())
	}
	return n
}

// TestTreeFootprint: a tree holds its header, one fixed-size record per
// node and one int32 per child and per pin — nothing per node beyond that.
func TestTreeFootprint(t *testing.T) {
	if unsafe.Sizeof(node{}) != 20 {
		t.Fatalf("node record is %d B, want 20", unsafe.Sizeof(node{}))
	}
	d := design.MustGenerate("18test5", 0.01)
	for _, net := range d.Nets {
		tr := Build(net)
		n, pins := tr.Len(), len(net.Pins)
		want := int(unsafe.Sizeof(Tree{})) + n*20 + 4*(n-1+pins)
		if got := residentBytes(reflect.ValueOf(tr)) - int(unsafe.Sizeof(tr)); got != want {
			t.Fatalf("net %s: tree holds %d B, closed form %d B", net.Name, got, want)
		}
	}
}

// TestBuildAllocations: a net with at most four distinct positions
// allocates only its tree (header, node array, child/pin array), and a
// whole design averages at most four allocations a net.
func TestBuildAllocations(t *testing.T) {
	nets := []*design.Net{
		netOf(geom.Point{X: 0, Y: 0}, geom.Point{X: 5, Y: 3}),
		netOf(geom.Point{X: 0, Y: 0}, geom.Point{X: 10, Y: 0}, geom.Point{X: 5, Y: 8}),
		netOf(geom.Point{X: 5, Y: 0}, geom.Point{X: 5, Y: 10}, geom.Point{X: 0, Y: 5}, geom.Point{X: 10, Y: 5}),
		netOf(geom.Point{X: 2, Y: 2}, geom.Point{X: 2, Y: 2}, geom.Point{X: 9, Y: 4}, geom.Point{X: 1, Y: 7}, geom.Point{X: 6, Y: 6}),
	}
	for _, net := range nets {
		if a := testing.AllocsPerRun(100, func() { Build(net) }); a > 3 {
			t.Errorf("%d-pin net: %v allocations per build, want <= 3", len(net.Pins), a)
		}
	}
	d := design.MustGenerate("18test5", 0.2)
	a := testing.AllocsPerRun(2, func() {
		for _, net := range d.Nets {
			Build(net)
		}
	})
	if per := a / float64(len(d.Nets)); per > 4 {
		t.Errorf("18test5@0.2: %.2f allocations per net, want <= 4", per)
	}
}

// TestTreeBytesPerNet: the live heap the trees of each workload design
// hold is at most 220 B a net, allocator size classes included.
func TestTreeBytesPerNet(t *testing.T) {
	var ms runtime.MemStats
	for _, w := range workloadDesigns {
		d := design.MustGenerate(w.name, w.scale)
		trees := make([]*Tree, len(d.Nets))
		runtime.GC()
		runtime.ReadMemStats(&ms)
		before := ms.HeapAlloc
		for i, net := range d.Nets {
			trees[i] = Build(net)
		}
		runtime.GC()
		runtime.ReadMemStats(&ms)
		per := float64(ms.HeapAlloc-before) / float64(len(trees))
		runtime.KeepAlive(trees)
		runtime.KeepAlive(d)
		t.Logf("%s@%v: %.1f B per net", w.name, w.scale, per)
		if per > 220 {
			t.Errorf("%s@%v: trees hold %.1f B per net, want <= 220", w.name, w.scale, per)
		}
	}
}
