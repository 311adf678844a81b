// Pattern routing anatomy: route one two-pin net across a congested region
// with the L-shape, Z-shape and hybrid-shape kernels and print each
// solution's cost, maximal wire runs and via stacks — a visual version of
// Figs. 2, 8 and 9.
package main

import (
	"fmt"

	"fastgr/internal/design"
	"fastgr/internal/geom"
	"fastgr/internal/grid"
	"fastgr/internal/pattern"
	"fastgr/internal/stt"
)

func main() {
	// A 24x24 four-layer grid with a congested band across the middle rows.
	d := &design.Design{
		Name: "demo", GridW: 24, GridH: 24, NumLayers: 4,
		LayerCapacity: []int{1, 8, 8, 8}, ViaCapacity: 16,
		Nets: []*design.Net{{ID: 0, Name: "demo", Pins: []design.Pin{
			{Pos: geom.Point{X: 2, Y: 2}, Layer: 1},
			{Pos: geom.Point{X: 20, Y: 18}, Layer: 1},
		}}},
	}
	if err := d.Validate(); err != nil {
		panic(err)
	}
	g := grid.NewFromDesign(d)

	// Saturate the boundary rows of the net's bounding box on every
	// horizontal layer: the rows every L-shape must use.
	for _, l := range []int{1, 3} {
		for _, y := range []int{2, 18} {
			for x := 2; x < 20; x++ {
				g.AddSegDemand(l, geom.Point{X: x, Y: y}, geom.Point{X: x + 1, Y: y}, 20)
			}
		}
	}

	net := d.Nets[0]
	tree := stt.Build(net)

	for _, cfg := range []struct {
		name string
		c    pattern.Config
	}{
		{"L-shape ", pattern.Config{Mode: pattern.LShape}},
		{"Z-shape ", pattern.Config{Mode: pattern.ZShape}},
		{"hybrid  ", pattern.Config{Mode: pattern.Hybrid}},
	} {
		res := pattern.SolveCPU(g, tree, cfg.c)
		fmt.Printf("%s cost=%8.2f  wirelength=%d vias=%d  DP ops=%d\n",
			cfg.name, res.Cost, res.Route.Wirelength(g), res.Route.ViaCount(g),
			res.Ops.Total())
		for _, run := range g.AppendRuns(nil, res.Route.Edges()) {
			if run.Lo == run.Hi {
				fmt.Printf("    wire layer %d: %v -> %v\n", run.Lo, run.A, run.B)
			} else {
				fmt.Printf("    via  (%d,%d): layers %d..%d\n", run.A.X, run.A.Y, run.Lo, run.Hi)
			}
		}
	}
	fmt.Println("\nthe hybrid kernel dodges the congested boundary rows by bending")
	fmt.Println("inside the bounding box, at the price of two extra via stacks.")
}
