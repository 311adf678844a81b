// Package guide materializes global-routing results as routing guides — the
// per-net stacks of layer rectangles that global routers hand to detailed
// routers (CUGR emits exactly this shape for Dr.CU). Guides are the
// contract between the two routing stages: every routed wire and via must
// be covered by its net's guide boxes, which Covers verifies.
package guide

import (
	"bufio"
	"cmp"
	"fmt"
	"io"
	"slices"
	"strconv"
	"strings"

	"fastgr/internal/core"
	"fastgr/internal/geom"
	"fastgr/internal/grid"
	"fastgr/internal/route"
)

// Box is one guide rectangle on a metal layer (inclusive G-cell bounds).
type Box struct {
	Layer int
	Rect  geom.Rect
}

// Guide is one net's routing guidance.
type Guide struct {
	Net   string
	Boxes []Box
}

// Area returns the total guided G-cell area (boxes may overlap; summed).
func (g Guide) Area() int {
	a := 0
	for _, b := range g.Boxes {
		a += b.Rect.Area()
	}
	return a
}

// FromResult converts every routed net into guides: per layer, the G-cells
// the net's wires and vias touch, merged into maximal row runs (the compact
// form detailed routers consume).
func FromResult(res *core.Result) []Guide {
	var guides []Guide
	var c cells
	for _, n := range res.Design.Nets {
		r := res.Routes[n.ID]
		if r == nil {
			continue
		}
		guides = append(guides, Guide{Net: n.Name, Boxes: c.boxesOf(res.Grid, r)})
	}
	return guides
}

// Touched cells are packed (layer, y, x) into one integer, 20 bits a
// coordinate, so that ascending key order is the row-major order the run
// merge walks and x+1 is the next cell of the same row.
const cellBits = 20

func cellKey(l, x, y int) uint64 {
	return uint64(l)<<(2*cellBits) | uint64(y)<<cellBits | uint64(x)
}

// cells is the scratch of the cell walk, reused net after net.
type cells struct {
	runs []grid.Run
	keys []uint64
}

// boxesOf collects the net's touched cells per layer — each cell of each
// maximal run of its edges — and merges them into boxes.
func (c *cells) boxesOf(g *grid.Graph, r *route.NetRoute) []Box {
	c.runs = g.AppendRuns(c.runs[:0], r.Edges())
	keys := c.keys[:0]
	for _, run := range c.runs {
		for l := run.Lo; l <= run.Hi; l++ {
			for y := run.A.Y; y <= run.B.Y; y++ {
				for x := run.A.X; x <= run.B.X; x++ {
					keys = append(keys, cellKey(l, x, y))
				}
			}
		}
	}
	c.keys = keys
	return boxesOfCells(keys)
}

// boxesOfCells merges cell keys per (layer, row) into maximal runs, then
// stacks equal runs of adjacent rows, deterministically. keys is sorted in
// place.
func boxesOfCells(keys []uint64) []Box {
	slices.Sort(keys)
	keys = slices.Compact(keys)
	const mask = 1<<cellBits - 1
	var boxes []Box
	for i := 0; i < len(keys); {
		j := i
		for j+1 < len(keys) && keys[j+1] == keys[j]+1 {
			j++
		}
		y := int(keys[i] >> cellBits & mask)
		boxes = append(boxes, Box{
			Layer: int(keys[i] >> (2 * cellBits)),
			Rect:  geom.Rect{Lo: geom.Point{X: int(keys[i] & mask), Y: y}, Hi: geom.Point{X: int(keys[j] & mask), Y: y}},
		})
		i = j + 1
	}
	return mergeVertical(boxes)
}

// mergeVertical stacks identical-width runs on the same layer in adjacent
// rows into taller boxes.
func mergeVertical(boxes []Box) []Box {
	slices.SortFunc(boxes, func(a, b Box) int {
		return cmp.Or(
			cmp.Compare(a.Layer, b.Layer),
			cmp.Compare(a.Rect.Lo.X, b.Rect.Lo.X),
			cmp.Compare(a.Rect.Hi.X, b.Rect.Hi.X),
			cmp.Compare(a.Rect.Lo.Y, b.Rect.Lo.Y))
	})
	var out []Box
	for _, b := range boxes {
		if n := len(out); n > 0 {
			last := &out[n-1]
			if last.Layer == b.Layer &&
				last.Rect.Lo.X == b.Rect.Lo.X && last.Rect.Hi.X == b.Rect.Hi.X &&
				last.Rect.Hi.Y+1 == b.Rect.Lo.Y {
				last.Rect.Hi.Y = b.Rect.Hi.Y
				continue
			}
		}
		out = append(out, b)
	}
	return out
}

// Covers verifies the guide contract: every G-cell a routed net touches —
// both ends of every edge it uses — lies inside one of its guide boxes. Each
// net stamps its boxes' cells with its own tag in one array over the grid's
// cells, so each touched cell is one lookup. It returns the first violation
// found.
func Covers(res *core.Result, guides []Guide) error {
	byName := make(map[string]int, len(guides))
	for i, g := range guides {
		byName[g.Net] = i
	}
	g := res.Grid
	stamp := make([]uint32, g.W*g.H*g.L)
	var runs []grid.Run
	for k, n := range res.Design.Nets {
		r := res.Routes[n.ID]
		if r == nil {
			continue
		}
		i, ok := byName[n.Name]
		if !ok {
			return fmt.Errorf("guide: net %s has no guide", n.Name)
		}
		tag := uint32(k + 1)
		stampBoxes(g, stamp, guides[i].Boxes, tag)
		runs = g.AppendRuns(runs[:0], r.Edges())
		if err := checkRuns(g, stamp, tag, runs); err != nil {
			return fmt.Errorf("guide: net %s %w", n.Name, err)
		}
	}
	return nil
}

// stampBoxes writes tag over the cells of the boxes that lie on the grid.
func stampBoxes(g *grid.Graph, stamp []uint32, boxes []Box, tag uint32) {
	for _, b := range boxes {
		r := b.Rect
		if b.Layer < 1 || b.Layer > g.L || r.Hi.X < 0 || r.Hi.Y < 0 || r.Lo.X >= g.W || r.Lo.Y >= g.H {
			continue
		}
		r = r.ClampTo(g.W, g.H)
		for y := r.Lo.Y; y <= r.Hi.Y; y++ {
			row := stamp[cellIndex(g, b.Layer, 0, y):]
			for x := r.Lo.X; x <= r.Hi.X; x++ {
				row[x] = tag
			}
		}
	}
}

// checkRuns names the first cell of the runs not stamped with tag.
func checkRuns(g *grid.Graph, stamp []uint32, tag uint32, runs []grid.Run) error {
	for _, run := range runs {
		for l := run.Lo; l <= run.Hi; l++ {
			for y := run.A.Y; y <= run.B.Y; y++ {
				for x := run.A.X; x <= run.B.X; x++ {
					if stamp[cellIndex(g, l, x, y)] != tag {
						return fmt.Errorf("cell (%d,%d) layer %d uncovered", x, y, l)
					}
				}
			}
		}
	}
	return nil
}

// cellIndex is the position of G-cell (x, y) on layer l in an array over
// the grid's cells.
func cellIndex(g *grid.Graph, l, x, y int) int { return ((l-1)*g.H+y)*g.W + x }

// Write serializes guides in the CUGR-style text form:
//
//	<net name>
//	(
//	x1 y1 x2 y2 layer
//	...
//	)
func Write(w io.Writer, guides []Guide) error {
	bw := bufio.NewWriter(w)
	for _, g := range guides {
		fmt.Fprintln(bw, g.Net)
		fmt.Fprintln(bw, "(")
		for _, b := range g.Boxes {
			fmt.Fprintf(bw, "%d %d %d %d %d\n",
				b.Rect.Lo.X, b.Rect.Lo.Y, b.Rect.Hi.X, b.Rect.Hi.Y, b.Layer)
		}
		fmt.Fprintln(bw, ")")
	}
	return bw.Flush()
}

// Read parses the format produced by Write.
func Read(r io.Reader) ([]Guide, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	var guides []Guide
	var cur *Guide
	inBody := false
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" {
			continue
		}
		switch {
		case text == "(":
			if cur == nil || inBody {
				return nil, fmt.Errorf("guide: line %d: unexpected '('", line)
			}
			inBody = true
		case text == ")":
			if cur == nil || !inBody {
				return nil, fmt.Errorf("guide: line %d: unexpected ')'", line)
			}
			guides = append(guides, *cur)
			cur, inBody = nil, false
		case inBody:
			b, err := parseBox(text)
			if err != nil {
				return nil, fmt.Errorf("guide: line %d: net %q: %w", line, cur.Net, err)
			}
			cur.Boxes = append(cur.Boxes, b)
		default:
			if cur != nil {
				return nil, fmt.Errorf("guide: line %d: net %q missing body", line, cur.Net)
			}
			cur = &Guide{Net: text}
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if cur != nil {
		return nil, fmt.Errorf("guide: unterminated guide for net %q", cur.Net)
	}
	return guides, nil
}

// parseBox validates one "x1 y1 x2 y2 layer" body line strictly: exactly
// five integer fields, non-negative coordinates, Lo <= Hi on both axes, a
// positive layer. fmt.Sscanf would silently accept trailing junk and
// reversed rectangles; a guide file is an inter-tool contract, so a
// malformed line gets a precise diagnosis instead of a half-parsed Box.
func parseBox(text string) (Box, error) {
	fields := strings.Fields(text)
	if len(fields) != 5 {
		return Box{}, fmt.Errorf("want 5 fields \"x1 y1 x2 y2 layer\", got %d", len(fields))
	}
	vals := make([]int, 5)
	names := [5]string{"x1", "y1", "x2", "y2", "layer"}
	for i, f := range fields {
		v, err := strconv.Atoi(f)
		if err != nil {
			return Box{}, fmt.Errorf("field %s: %q is not an integer", names[i], f)
		}
		vals[i] = v
	}
	b := Box{
		Layer: vals[4],
		Rect: geom.Rect{Lo: geom.Point{X: vals[0], Y: vals[1]},
			Hi: geom.Point{X: vals[2], Y: vals[3]}},
	}
	if b.Layer < 1 {
		return Box{}, fmt.Errorf("layer %d < 1", b.Layer)
	}
	if b.Rect.Lo.X < 0 || b.Rect.Lo.Y < 0 {
		return Box{}, fmt.Errorf("negative corner (%d,%d)", b.Rect.Lo.X, b.Rect.Lo.Y)
	}
	if b.Rect.Lo.X > b.Rect.Hi.X || b.Rect.Lo.Y > b.Rect.Hi.Y {
		return Box{}, fmt.Errorf("inverted rectangle (%d,%d)-(%d,%d)",
			b.Rect.Lo.X, b.Rect.Lo.Y, b.Rect.Hi.X, b.Rect.Hi.Y)
	}
	return b, nil
}
