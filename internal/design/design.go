// Package design models the input to global routing — multi-pin nets with
// G-cell pin positions on a layered grid — and generates deterministic
// synthetic designs shaped like the ICCAD-2019 contest benchmarks the paper
// evaluates on (the real LEF/DEF suite is not available offline; see
// DESIGN.md for the substitution argument).
package design

import (
	"fmt"
	"hash/maphash"
	"math/bits"
	"sort"

	"fastgr/internal/geom"
)

// Pin is a single connection point of a net, mapped to a G-cell and a metal
// layer (layers are 1-based).
type Pin struct {
	Pos   geom.Point
	Layer int
}

// Net is a multi-pin net: a set of pins that must be electrically connected.
type Net struct {
	ID   int
	Name string
	Pins []Pin
}

// Points returns the distinct 2-D G-cell positions of the net's pins,
// in deterministic order.
func (n *Net) Points() []geom.Point {
	seen := make(map[geom.Point]bool, len(n.Pins))
	pts := make([]geom.Point, 0, len(n.Pins))
	for _, p := range n.Pins {
		if !seen[p.Pos] {
			seen[p.Pos] = true
			pts = append(pts, p.Pos)
		}
	}
	return pts
}

// BBox returns the bounding box of the net's pins.
func (n *Net) BBox() geom.Rect {
	r := geom.NewRect(n.Pins[0].Pos, n.Pins[0].Pos)
	for _, p := range n.Pins[1:] {
		r = r.Extend(p.Pos)
	}
	return r
}

// HPWL is the half-perimeter wirelength of the net's bounding box.
func (n *Net) HPWL() int { return n.BBox().HPWL() }

// Design is a complete global-routing instance: a G-cell grid with L metal
// layers and the nets to route on it.
type Design struct {
	Name      string
	GridW     int // number of G-cell columns
	GridH     int // number of G-cell rows
	NumLayers int // number of metal layers (>= 2)

	// LayerCapacity[l-1] is the wire-edge capacity (tracks per G-cell edge)
	// of metal layer l, in [0, MaxCapacity]. Layer 1 carries pins and is
	// typically nearly unroutable, as in the contest benchmarks.
	LayerCapacity []int

	// ViaCapacity is the via-edge capacity between adjacent layers at one
	// G-cell, in [0, MaxCapacity]. CUGR models finite via capacity in its
	// 3-D grid graph.
	ViaCapacity int

	Nets []*Net

	// Blockages reduce wire capacity inside a region on one layer, the
	// synthetic stand-in for macros and pre-routes that create the
	// congestion hot spots rip-up-and-reroute has to resolve.
	Blockages []Blockage
}

// Blockage removes Density fraction of the tracks of every wire edge whose
// G-cells fall inside Region on layer Layer.
type Blockage struct {
	Layer   int
	Region  geom.Rect
	Density float64 // in (0,1]; 1.0 blocks the edge completely
}

// NumPins returns the total pin count over all nets.
func (d *Design) NumPins() int {
	n := 0
	for _, net := range d.Nets {
		n += len(net.Pins)
	}
	return n
}

// MaxCapacity is the largest wire or via capacity a design may declare:
// the routing grid stores capacities in 16 bits.
const MaxCapacity = 1<<16 - 1

// CheckCapacities reports the first layer or via capacity outside
// [0, MaxCapacity]. A negative capacity would count every edge of its
// layer as overflowed; a larger one would not fit the grid's 16 bits.
func (d *Design) CheckCapacities() error {
	for l, c := range d.LayerCapacity {
		if c < 0 || c > MaxCapacity {
			return fmt.Errorf("design %s: layer %d capacity %d outside [0,%d]", d.Name, l+1, c, MaxCapacity)
		}
	}
	if c := d.ViaCapacity; c < 0 || c > MaxCapacity {
		return fmt.Errorf("design %s: via capacity %d outside [0,%d]", d.Name, c, MaxCapacity)
	}
	return nil
}

// Validate checks structural invariants of the design and returns the first
// violation found, if any.
func (d *Design) Validate() error {
	if d.GridW < 2 || d.GridH < 2 {
		return fmt.Errorf("design %s: grid %dx%d too small", d.Name, d.GridW, d.GridH)
	}
	if d.NumLayers < 2 {
		return fmt.Errorf("design %s: need >= 2 layers, have %d", d.Name, d.NumLayers)
	}
	if len(d.LayerCapacity) != d.NumLayers {
		return fmt.Errorf("design %s: %d layer capacities for %d layers",
			d.Name, len(d.LayerCapacity), d.NumLayers)
	}
	if err := d.CheckCapacities(); err != nil {
		return err
	}
	// Routes are indexed by ID (core sizes them by the largest) and guides
	// keyed by name, so both must be unique.
	maxID := -1
	for _, n := range d.Nets {
		if n.ID < 0 {
			return fmt.Errorf("net %s: negative id %d", n.Name, n.ID)
		}
		maxID = max(maxID, n.ID)
	}
	ids := make([]bool, maxID+1)
	// names is an open-addressing set of the names seen so far: slot k
	// holds 1 + the index of a net whose name hashes there (0 = empty).
	names := make([]int32, 2<<bits.Len(uint(len(d.Nets))))
	seed, mask := maphash.MakeSeed(), uint64(len(names)-1)
	for i, n := range d.Nets {
		if len(n.Pins) < 2 {
			return fmt.Errorf("net %s: %d pins, need >= 2", n.Name, len(n.Pins))
		}
		if ids[n.ID] {
			return fmt.Errorf("net %s: duplicate id %d", n.Name, n.ID)
		}
		ids[n.ID] = true
		k := maphash.String(seed, n.Name) & mask
		for ; names[k] != 0; k = (k + 1) & mask {
			if d.Nets[names[k]-1].Name == n.Name {
				return fmt.Errorf("net %s: duplicate name", n.Name)
			}
		}
		names[k] = int32(i + 1)
		for _, p := range n.Pins {
			if p.Pos.X < 0 || p.Pos.X >= d.GridW || p.Pos.Y < 0 || p.Pos.Y >= d.GridH {
				return fmt.Errorf("net %s: pin %v outside %dx%d grid",
					n.Name, p.Pos, d.GridW, d.GridH)
			}
			if p.Layer < 1 || p.Layer > d.NumLayers {
				return fmt.Errorf("net %s: pin layer %d outside [1,%d]",
					n.Name, p.Layer, d.NumLayers)
			}
		}
	}
	for _, b := range d.Blockages {
		if b.Layer < 1 || b.Layer > d.NumLayers {
			return fmt.Errorf("blockage layer %d outside [1,%d]", b.Layer, d.NumLayers)
		}
		if !(b.Density > 0 && b.Density <= 1) { // NaN fails both tests
			return fmt.Errorf("blockage density %v outside (0,1]", b.Density)
		}
	}
	return nil
}

// Stats summarizes a design for Table III-style reporting.
type Stats struct {
	Name     string
	Nets     int
	Pins     int
	GridW    int
	GridH    int
	Layers   int
	AvgHPWL  float64
	MaxHPWL  int
	TwoPin   int // nets with exactly 2 pins
	MultiPin int // nets with > 2 pins
}

// ComputeStats derives summary statistics from a design.
func ComputeStats(d *Design) Stats {
	s := Stats{
		Name:   d.Name,
		Nets:   len(d.Nets),
		Pins:   d.NumPins(),
		GridW:  d.GridW,
		GridH:  d.GridH,
		Layers: d.NumLayers,
	}
	total := 0
	for _, n := range d.Nets {
		h := n.HPWL()
		total += h
		if h > s.MaxHPWL {
			s.MaxHPWL = h
		}
		if len(n.Pins) == 2 {
			s.TwoPin++
		} else {
			s.MultiPin++
		}
	}
	if len(d.Nets) > 0 {
		s.AvgHPWL = float64(total) / float64(len(d.Nets))
	}
	return s
}

// SortNetsByID restores the canonical net order after any experiment that
// permuted d.Nets in place.
func SortNetsByID(nets []*Net) {
	sort.Slice(nets, func(i, j int) bool { return nets[i].ID < nets[j].ID })
}
