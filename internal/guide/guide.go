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
	for _, n := range res.Design.Nets {
		r := res.Routes[n.ID]
		if r == nil {
			continue
		}
		guides = append(guides, Guide{Net: n.Name, Boxes: boxesOf(r)})
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

// boxesOf collects the net's touched cells per layer and merges them.
func boxesOf(r *route.NetRoute) []Box {
	var keys []uint64
	for _, p := range r.Paths {
		for _, s := range p.Segs {
			if s.A.Y == s.B.Y {
				lo, hi := geom.Min(s.A.X, s.B.X), geom.Max(s.A.X, s.B.X)
				for x := lo; x <= hi; x++ {
					keys = append(keys, cellKey(s.Layer, x, s.A.Y))
				}
			} else {
				lo, hi := geom.Min(s.A.Y, s.B.Y), geom.Max(s.A.Y, s.B.Y)
				for y := lo; y <= hi; y++ {
					keys = append(keys, cellKey(s.Layer, s.A.X, y))
				}
			}
		}
		for _, v := range p.Vias {
			for l := v.L1; l <= v.L2; l++ {
				keys = append(keys, cellKey(l, v.X, v.Y))
			}
		}
	}
	// Merge per (layer,row) into maximal runs, deterministically.
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

// Covers verifies the guide contract: every wire edge and via of every
// routed net lies inside one of its guide boxes. It returns the first
// violation found.
func Covers(res *core.Result, guides []Guide) error {
	byName := map[string]Guide{}
	for _, g := range guides {
		byName[g.Net] = g
	}
	for _, n := range res.Design.Nets {
		r := res.Routes[n.ID]
		if r == nil {
			continue
		}
		g, ok := byName[n.Name]
		if !ok {
			return fmt.Errorf("guide: net %s has no guide", n.Name)
		}
		inGuide := func(l, x, y int) bool {
			for _, b := range g.Boxes {
				if b.Layer == l && b.Rect.Contains(geom.Point{X: x, Y: y}) {
					return true
				}
			}
			return false
		}
		for _, p := range r.Paths {
			for _, s := range p.Segs {
				for _, pt := range []geom.Point{s.A, s.B} {
					if !inGuide(s.Layer, pt.X, pt.Y) {
						return fmt.Errorf("guide: net %s wire endpoint %v layer %d uncovered",
							n.Name, pt, s.Layer)
					}
				}
			}
			for _, v := range p.Vias {
				for l := v.L1; l <= v.L2; l++ {
					if !inGuide(l, v.X, v.Y) {
						return fmt.Errorf("guide: net %s via (%d,%d) layer %d uncovered",
							n.Name, v.X, v.Y, l)
					}
				}
			}
		}
	}
	return nil
}

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
