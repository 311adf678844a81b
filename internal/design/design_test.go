package design

import (
	"bytes"
	"io"
	"math"
	"strings"
	"testing"

	"fastgr/internal/geom"
	"fastgr/internal/textio"
)

func TestSpecsTwelveDesigns(t *testing.T) {
	if len(Specs) != 12 {
		t.Fatalf("want 12 specs, have %d", len(Specs))
	}
	for i := 0; i < len(Specs); i += 2 {
		base, m := Specs[i], Specs[i+1]
		if m.Name != base.Name+"m" {
			t.Errorf("spec %d: twin of %s is %s", i, base.Name, m.Name)
		}
		if m.Nets != base.Nets || m.GridW != base.GridW || m.GridH != base.GridH {
			t.Errorf("twin %s differs from %s in nets/grid", m.Name, base.Name)
		}
		if base.Layers != 9 || m.Layers != 5 {
			t.Errorf("layer counts wrong: %s=%d %s=%d", base.Name, base.Layers, m.Name, m.Layers)
		}
	}
}

func TestSpecByName(t *testing.T) {
	s, err := SpecByName("19test9m")
	if err != nil {
		t.Fatal(err)
	}
	if s.Layers != 5 || s.Nets != 895253 {
		t.Fatalf("unexpected spec: %+v", s)
	}
	if _, err := SpecByName("nope"); err == nil {
		t.Fatal("expected error for unknown name")
	}
}

func TestBaseAndAllNames(t *testing.T) {
	if got := len(BaseNames()); got != 6 {
		t.Fatalf("BaseNames len = %d, want 6", got)
	}
	if got := len(AllNames()); got != 12 {
		t.Fatalf("AllNames len = %d, want 12", got)
	}
	for _, n := range BaseNames() {
		if strings.HasSuffix(n, "m") {
			t.Errorf("base name %q ends in m", n)
		}
	}
}

func TestGenerateValidAndDeterministic(t *testing.T) {
	a := MustGenerate("18test5", 0.004)
	if err := a.Validate(); err != nil {
		t.Fatalf("generated design invalid: %v", err)
	}
	b := MustGenerate("18test5", 0.004)
	var bufA, bufB bytes.Buffer
	if err := Write(&bufA, a); err != nil {
		t.Fatal(err)
	}
	if err := Write(&bufB, b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(bufA.Bytes(), bufB.Bytes()) {
		t.Fatal("generation is not deterministic")
	}
}

func TestGenerateScaling(t *testing.T) {
	small := MustGenerate("18test8", 0.002)
	large := MustGenerate("18test8", 0.008)
	if len(large.Nets) <= len(small.Nets) {
		t.Fatalf("scaling broken: %d nets at 0.008 vs %d at 0.002",
			len(large.Nets), len(small.Nets))
	}
	if large.GridW <= small.GridW {
		t.Fatalf("grid did not scale: %d vs %d", large.GridW, small.GridW)
	}
}

func TestGenerateRejectsBadInput(t *testing.T) {
	if _, err := Generate("18test5", 0); err == nil {
		t.Error("scale 0 accepted")
	}
	if _, err := Generate("18test5", 1.5); err == nil {
		t.Error("scale > 1 accepted")
	}
	if _, err := Generate("unknown", 0.5); err == nil {
		t.Error("unknown design accepted")
	}
}

func TestGeneratedPinMix(t *testing.T) {
	d := MustGenerate("19test7", 0.003)
	two, multi := 0, 0
	for _, n := range d.Nets {
		if len(n.Pins) < 2 {
			t.Fatalf("net %s has %d pins", n.Name, len(n.Pins))
		}
		if len(n.Pins) == 2 {
			two++
		} else {
			multi++
		}
	}
	if two == 0 || multi == 0 {
		t.Fatalf("degenerate pin mix: two=%d multi=%d", two, multi)
	}
	frac := float64(two) / float64(len(d.Nets))
	if frac < 0.35 || frac > 0.85 {
		t.Fatalf("two-pin fraction %0.2f outside expected band", frac)
	}
}

func TestGeneratedHPWLDistribution(t *testing.T) {
	d := MustGenerate("19test8", 0.003)
	small, largeN := 0, 0
	// Local nets keep a small absolute span regardless of scale (cluster
	// sigma is absolute); the threshold mirrors a few cluster diameters.
	const thresh = 14
	for _, n := range d.Nets {
		if n.HPWL() < thresh {
			small++
		}
		if n.HPWL() > d.GridW/2 {
			largeN++
		}
	}
	if float64(small)/float64(len(d.Nets)) < 0.7 {
		t.Fatalf("only %d/%d nets are small; generator should be local-dominated",
			small, len(d.Nets))
	}
	if largeN == 0 {
		t.Fatal("no chip-spanning nets generated; hybrid kernel would be untested")
	}
}

func TestGeneratedBlockagesInBounds(t *testing.T) {
	d := MustGenerate("18test10m", 0.003)
	if len(d.Blockages) == 0 {
		t.Fatal("no blockages generated; no congestion hot spots")
	}
	grid := geom.Rect{Lo: geom.Point{X: 0, Y: 0}, Hi: geom.Point{X: d.GridW - 1, Y: d.GridH - 1}}
	for _, b := range d.Blockages {
		if !grid.Contains(b.Region.Lo) || !grid.Contains(b.Region.Hi) {
			t.Errorf("blockage region %+v outside grid", b.Region)
		}
		if b.Layer < 2 || b.Layer > d.NumLayers {
			t.Errorf("blockage on layer %d", b.Layer)
		}
	}
}

func TestValidateCatchesErrors(t *testing.T) {
	base := func() *Design {
		return &Design{
			Name: "x", GridW: 10, GridH: 10, NumLayers: 3,
			LayerCapacity: []int{1, 10, 10}, ViaCapacity: 4,
			Nets: []*Net{{ID: 0, Name: "n0", Pins: []Pin{
				{Pos: geom.Point{X: 1, Y: 1}, Layer: 1},
				{Pos: geom.Point{X: 5, Y: 5}, Layer: 1},
			}}},
		}
	}
	if err := base().Validate(); err != nil {
		t.Fatalf("valid design rejected: %v", err)
	}
	d := base()
	d.Nets[0].Pins = d.Nets[0].Pins[:1]
	if d.Validate() == nil {
		t.Error("single-pin net accepted")
	}
	d = base()
	d.Nets[0].Pins[0].Pos.X = 99
	if d.Validate() == nil {
		t.Error("out-of-grid pin accepted")
	}
	d = base()
	d.Nets[0].Pins[0].Layer = 7
	if d.Validate() == nil {
		t.Error("out-of-range pin layer accepted")
	}
	d = base()
	d.LayerCapacity = d.LayerCapacity[:2]
	if d.Validate() == nil {
		t.Error("capacity/layer mismatch accepted")
	}
	d = base()
	d.Nets = append(d.Nets, &Net{ID: 0, Name: "dup", Pins: d.Nets[0].Pins})
	if d.Validate() == nil {
		t.Error("duplicate net id accepted")
	}
	d = base()
	d.Blockages = []Blockage{{Layer: 2, Density: 1.5}}
	if d.Validate() == nil {
		t.Error("blockage density > 1 accepted")
	}
	d = base()
	d.Blockages = []Blockage{{Layer: 2, Density: math.NaN()}}
	if d.Validate() == nil {
		t.Error("blockage density NaN accepted")
	}
	d = base()
	d.Nets = append(d.Nets, &Net{ID: 1, Name: "n0", Pins: d.Nets[0].Pins})
	if d.Validate() == nil {
		t.Error("duplicate net name accepted")
	}
	d = base()
	d.Nets[0].ID = -1
	if d.Validate() == nil {
		t.Error("negative net id accepted")
	}
}

func TestRoundTripSerialization(t *testing.T) {
	d := MustGenerate("18test5m", 0.003)
	var buf bytes.Buffer
	if err := Write(&buf, d); err != nil {
		t.Fatal(err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Name != d.Name || got.GridW != d.GridW || got.GridH != d.GridH ||
		got.NumLayers != d.NumLayers || got.ViaCapacity != d.ViaCapacity {
		t.Fatalf("header mismatch: %+v vs %+v", got, d)
	}
	if len(got.Nets) != len(d.Nets) {
		t.Fatalf("net count %d vs %d", len(got.Nets), len(d.Nets))
	}
	for i := range d.Nets {
		if len(got.Nets[i].Pins) != len(d.Nets[i].Pins) {
			t.Fatalf("net %d pin count differs", i)
		}
		for j := range d.Nets[i].Pins {
			if got.Nets[i].Pins[j] != d.Nets[i].Pins[j] {
				t.Fatalf("net %d pin %d differs", i, j)
			}
		}
	}
	if len(got.Blockages) != len(d.Blockages) {
		t.Fatalf("blockage count differs")
	}
}

func TestReadErrors(t *testing.T) {
	const hdr = "design x 10 10 3\ncaps 1 8 8\nviacap 4\n"
	const net = "net n0 2\npin 1 1 1\npin 5 5 1\n"
	cases := []struct {
		in   string
		line string // the "line N:" the error must carry; "" when it has none
	}{
		{"", ""},                                // no end
		{"bogus directive\nend\n", "line 1:"},   // unknown directive
		{"pin 1 2 3\nend\n", "line 1:"},         // pin outside net
		{"design x 10 10\nend\n", "line 1:"},    // short design line
		{"net n0 one\nend\n", "line 1:"},        // bad pin count
		{"viacap x\nend\n", "line 1:"},          // bad viacap
		{"blockage 1 2 3\nend\n", "line 1:"},    // short blockage
		{"caps 1 x\nend\n", "line 1:"},          // bad capacity
		{"design x 10 10 3\nend\n", ""},         // validate fails: no caps
		{"net n0 2\npin 1 2\nend\n", "line 2:"}, // short pin line
		// A net with fewer pin lines than it declares, cut short by the
		// next net, by end, or by any other directive.
		{hdr + "net n0 3\npin 1 1 1\npin 5 5 1\nnet n1 2\npin 1 1 1\npin 5 5 1\nend\n", "line 7:"},
		{hdr + "net n0 3\npin 1 1 1\npin 5 5 1\nend\n", "line 7:"},
		{hdr + "net n0 3\npin 1 1 1\nviacap 4\npin 5 5 1\npin 2 2 1\nend\n", "line 6:"},
		// Trailing junk in a number.
		{hdr + "net n0 2\npin 1 1 1x\npin 5 5 1\nend\n", "line 5:"},
		{"design x 10 10 3\ncaps 1 8 8z\n" + net + "end\n", "line 2:"},
		{hdr + "net n0 2x\npin 1 1 1\npin 5 5 1\nend\n", "line 4:"},
		{"design x 10 10 3z\ncaps 1 8 8\n" + net + "end\n", "line 1:"},
		{hdr + "blockage 2 0 0 5 5 0.5x\n" + net + "end\n", "line 4:"},
		// An extra field.
		{hdr + "net n0 2\npin 1 1 1 9\npin 5 5 1\nend\n", "line 5:"},
		// Repeated header lines.
		{hdr + "design y 20 20 3\n" + net + "end\n", "line 4:"},
		{"design x 10 10 3\ncaps 1 8\ncaps 8\n" + net + "end\n", "line 3:"},
		{hdr + "viacap 5\n" + net + "end\n", "line 4:"},
		// A negative pin count.
		{hdr + "net n0 -1\nend\n", "line 4:"},
		// A line longer than the reader takes.
		{hdr + "net " + strings.Repeat("n", textio.MaxLine) + " 2\nend\n", "line 4:"},
	}
	for i, c := range cases {
		_, err := Read(strings.NewReader(c.in))
		if err == nil {
			t.Errorf("case %d: bad input accepted", i)
			continue
		}
		if c.line != "" && !strings.HasPrefix(err.Error(), c.line) {
			t.Errorf("case %d: error %q does not start with %q", i, err, c.line)
		}
	}
}

// TestReadAcceptsLooseSpelling pins what the strict reader still allows:
// comments, blank lines, any white space between fields, explicit plus
// signs, leading zeros and anything after end.
func TestReadAcceptsLooseSpelling(t *testing.T) {
	in := "# a comment\n\ndesign x +10 010 3\n  caps\t1 8 +8 \r\n#net n9 2\n" +
		"net n0 2\n\n# between pins\npin 1 1 1\npin 5 5 +1\nend\ntrailing text is ignored\n"
	d, err := Read(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if d.GridW != 10 || d.GridH != 10 || len(d.Nets) != 1 || len(d.Nets[0].Pins) != 2 ||
		d.LayerCapacity[2] != 8 || d.ViaCapacity != defaultViaCap {
		t.Fatalf("loose spelling misparsed: %+v", d)
	}
}

func TestComputeStats(t *testing.T) {
	d := MustGenerate("18test5", 0.003)
	s := ComputeStats(d)
	if s.Nets != len(d.Nets) || s.Pins != d.NumPins() {
		t.Fatal("counts wrong")
	}
	if s.TwoPin+s.MultiPin != s.Nets {
		t.Fatal("two-pin/multi-pin split does not partition nets")
	}
	if s.AvgHPWL <= 0 || s.MaxHPWL <= 0 {
		t.Fatal("HPWL stats not computed")
	}
	if s.Layers != 9 {
		t.Fatalf("layers = %d", s.Layers)
	}
}

func TestNetHelpers(t *testing.T) {
	n := &Net{ID: 1, Name: "n", Pins: []Pin{
		{Pos: geom.Point{X: 1, Y: 2}, Layer: 1},
		{Pos: geom.Point{X: 4, Y: 8}, Layer: 1},
		{Pos: geom.Point{X: 1, Y: 2}, Layer: 2}, // duplicate position
	}}
	if got := len(n.Points()); got != 2 {
		t.Fatalf("Points dedup failed: %d", got)
	}
	if n.HPWL() != 9 {
		t.Fatalf("HPWL = %d, want 9", n.HPWL())
	}
	bb := n.BBox()
	if bb.Lo != (geom.Point{X: 1, Y: 2}) || bb.Hi != (geom.Point{X: 4, Y: 8}) {
		t.Fatalf("BBox = %+v", bb)
	}
}

func TestSortNetsByID(t *testing.T) {
	nets := []*Net{{ID: 3}, {ID: 1}, {ID: 2}}
	SortNetsByID(nets)
	for i, n := range nets {
		if n.ID != i+1 {
			t.Fatalf("order wrong at %d: %d", i, n.ID)
		}
	}
}

// readAllocsPerNetCeiling bounds Read's allocations per net on
// 18test5m@0.05: a name each, plus the slabs nets and pins are carved from
// and the net list's growth (measured: 1.02, also under -race).
const readAllocsPerNetCeiling = 1.25

func TestReadAllocBudget(t *testing.T) {
	d := MustGenerate("18test5m", 0.05)
	var buf bytes.Buffer
	if err := Write(&buf, d); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(3, func() {
		if _, err := Read(bytes.NewReader(buf.Bytes())); err != nil {
			t.Fatal(err)
		}
	})
	perNet := allocs / float64(len(d.Nets))
	t.Logf("Read: %v allocs for %d nets, %.3f per net", allocs, len(d.Nets), perNet)
	if perNet > readAllocsPerNetCeiling {
		t.Fatalf("Read allocates %.2f per net (%v for %d nets), ceiling %v",
			perNet, allocs, len(d.Nets), readAllocsPerNetCeiling)
	}
}

// writeAllocsCeiling bounds Write's allocations, whatever the design's
// size: the line writer and its buffer (measured: 1).
const writeAllocsCeiling = 2

func TestWriteAllocsConstant(t *testing.T) {
	small := MustGenerate("18test5m", 0.003)
	large := MustGenerate("18test5m", 0.05)
	a := testing.AllocsPerRun(3, func() { Write(io.Discard, small) })
	b := testing.AllocsPerRun(3, func() { Write(io.Discard, large) })
	t.Logf("Write: %v allocs for %d nets, %v for %d", a, len(small.Nets), b, len(large.Nets))
	if a != b || b > writeAllocsCeiling {
		t.Fatalf("Write allocates %v for %d nets and %v for %d, want one constant <= %d",
			a, len(small.Nets), b, len(large.Nets), writeAllocsCeiling)
	}
}

// TestCapacityRange: a layer or via capacity outside [0, MaxCapacity] is
// refused by Validate and so by Read, with an error naming the layer, not
// wrapped into 16 bits or left negative to overflow every edge of its
// layer. The bounds themselves are accepted.
func TestCapacityRange(t *testing.T) {
	const net = "net n0 2\npin 1 1 1\npin 5 5 1\nend\n"
	for _, tc := range []struct{ caps, viacap, want string }{
		{"1 4294967303 8", "4", "layer 2 capacity 4294967303 outside [0,65535]"},
		{"1 8 -3", "4", "layer 3 capacity -3 outside [0,65535]"},
		{"1 8 8", "65536", "via capacity 65536 outside [0,65535]"},
		{"1 8 8", "-1", "via capacity -1 outside [0,65535]"},
		{"0 65535 8", "65535", ""},
	} {
		text := "design x 10 10 3\ncaps " + tc.caps + "\nviacap " + tc.viacap + "\n" + net
		d, err := Read(strings.NewReader(text))
		switch {
		case tc.want == "" && err != nil:
			t.Errorf("caps %s viacap %s: %v", tc.caps, tc.viacap, err)
		case tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)):
			t.Errorf("caps %s viacap %s: error %v, want %q", tc.caps, tc.viacap, err, tc.want)
		case tc.want == "" && d.LayerCapacity[1] != 65535:
			t.Errorf("caps %s read as %v", tc.caps, d.LayerCapacity)
		}
	}
}
