package dr

import (
	"fmt"
	"strings"
	"testing"

	"fastgr/internal/design"
	"fastgr/internal/geom"
	"fastgr/internal/grid"
	"fastgr/internal/route"
)

// tryBuild builds a route from the pieces add gives on g and returns the
// builder's panic message, "" when the geometry was accepted.
func tryBuild(g *grid.Graph, net int, add func(b *route.Builder)) (r *route.NetRoute, msg string) {
	defer func() {
		if p := recover(); p != nil {
			msg = fmt.Sprint(p)
		}
	}()
	var b route.Builder
	b.Reset(g, net)
	add(&b)
	return b.Build(), ""
}

func seg(l int, a, c geom.Point) func(b *route.Builder) {
	return func(b *route.Builder) { b.Seg(l, a, c) }
}

func via(x, y, lo, hi int) func(b *route.Builder) {
	return func(b *route.Builder) { b.Via(x, y, lo, hi) }
}

// tallGrid has testGrid's 32x32 cells but nine layers: its routes name
// edges a four-layer grid does not have.
func tallGrid() *grid.Graph {
	return grid.NewFromDesign(&design.Design{
		Name: "tall", GridW: 32, GridH: 32, NumLayers: 9,
		LayerCapacity: []int{1, 8, 8, 8, 8, 8, 8, 8, 8}, ViaCapacity: 16,
	})
}

// TestValidateRoutesMalformed walks the table of geometry corruptions a
// broken producer could hand Evaluate. Every one is refused where routes
// are made — the route.Builder panics naming the net and the offending
// coordinate — so none reaches ValidateRoutes; what still can is a route
// built for another grid, whose edge IDs ValidateRoutes range-checks.
func TestValidateRoutesMalformed(t *testing.T) {
	g := testGrid(t, 8) // 32x32, 4 layers; odd layers horizontal
	cases := []struct {
		name string
		net  int
		add  func(b *route.Builder)
		want string // substring of the builder's panic ("" = valid)
	}{
		{"valid horizontal", 1, seg(3, geom.Point{X: 2, Y: 5}, geom.Point{X: 10, Y: 5}), ""},
		{"valid vertical", 1, seg(2, geom.Point{X: 4, Y: 1}, geom.Point{X: 4, Y: 9}), ""},
		{"valid via", 1, via(3, 3, 1, 4), ""},
		{"layer zero", 7, seg(0, geom.Point{X: 2, Y: 5}, geom.Point{X: 10, Y: 5}),
			"net 7: segment (2,5)-(10,5) layer 0 outside [1,4]"},
		{"layer too high", 7, seg(5, geom.Point{X: 2, Y: 5}, geom.Point{X: 10, Y: 5}),
			"layer 5 outside [1,4]"},
		{"endpoint off grid", 3, seg(3, geom.Point{X: 2, Y: 5}, geom.Point{X: 32, Y: 5}),
			"net 3: segment endpoint (32,5) layer 3 outside 32x32 grid"},
		{"negative endpoint", 3, seg(3, geom.Point{X: -1, Y: 5}, geom.Point{X: 4, Y: 5}),
			"endpoint (-1,5)"},
		{"diagonal on horizontal layer", 2, seg(3, geom.Point{X: 2, Y: 5}, geom.Point{X: 10, Y: 6}),
			"not row-aligned on horizontal layer 3"},
		{"diagonal on vertical layer", 2, seg(2, geom.Point{X: 2, Y: 5}, geom.Point{X: 3, Y: 9}),
			"not column-aligned on vertical layer 2"},
		{"via off grid", 4, via(40, 3, 1, 2),
			"net 4: via (40,3) outside 32x32 grid"},
		{"via layer zero", 4, via(3, 3, 0, 2),
			"layer span [0,2] invalid for 4 layers"},
		{"via span inverted", 4, via(3, 3, 3, 2),
			"layer span [3,2] invalid"},
		{"via above stack", 4, via(3, 3, 2, 5),
			"layer span [2,5] invalid"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r, msg := tryBuild(g, tc.net, tc.add)
			if tc.want == "" {
				if msg != "" {
					t.Fatalf("valid geometry refused: %s", msg)
				}
				if err := ValidateRoutes(g, []*route.NetRoute{nil, r}); err != nil {
					t.Fatalf("valid route rejected: %v", err)
				}
				return
			}
			if msg == "" {
				t.Fatalf("corrupt geometry built")
			}
			if !strings.Contains(msg, tc.want) {
				t.Fatalf("panic %q does not mention %q", msg, tc.want)
			}
		})
	}
	t.Run("edge outside grid", func(t *testing.T) {
		r, _ := tryBuild(tallGrid(), 5, via(3, 3, 4, 9))
		err := ValidateRoutes(g, []*route.NetRoute{nil, r})
		if err == nil {
			t.Fatal("route of a nine-layer grid accepted on four layers")
		}
		if want := "net 5: edge"; !strings.Contains(err.Error(), want) {
			t.Fatalf("error %q does not mention %q", err, want)
		}
	})
}

func TestEvaluateCheckedGatesEvaluation(t *testing.T) {
	g := testGrid(t, 8)
	good := routeWithSeg(1, 3, geom.Point{X: 2, Y: 5}, geom.Point{X: 10, Y: 5})
	m, err := EvaluateChecked(g, []*route.NetRoute{good})
	if err != nil {
		t.Fatal(err)
	}
	if want := Evaluate(g, []*route.NetRoute{good}); m != want {
		t.Fatalf("EvaluateChecked = %+v, Evaluate = %+v", m, want)
	}
	bad, _ := tryBuild(tallGrid(), 1, seg(9, geom.Point{X: 2, Y: 5}, geom.Point{X: 10, Y: 5}))
	if _, err := EvaluateChecked(g, []*route.NetRoute{bad}); err == nil {
		t.Fatal("EvaluateChecked accepted an out-of-stack layer")
	}
}
