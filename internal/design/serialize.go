package design

import (
	"errors"
	"fmt"
	"io"
	"strconv"

	"fastgr/internal/textio"
)

// The on-disk format is a minimal line-oriented text format in the spirit of
// the contest inputs:
//
//	design <name> <gridW> <gridH> <layers>
//	caps <c1> <c2> ... <cL>
//	viacap <c>
//	blockage <layer> <lox> <loy> <hix> <hiy> <density>
//	net <name> <npins>
//	  pin <x> <y> <layer>
//	end
//
// It exists so generated benchmarks can be saved once and replayed, and so
// users can hand-write small designs for the examples. DESIGN.md ("Text
// formats") gives the full grammar and what Read rejects.

// Write serializes d to w.
func Write(w io.Writer, d *Design) error {
	tw := textio.NewWriter(w)
	tw.Word("design")
	tw.Word(d.Name)
	tw.Int(d.GridW)
	tw.Int(d.GridH)
	tw.Int(d.NumLayers)
	tw.EndLine()
	tw.Word("caps")
	for _, c := range d.LayerCapacity {
		tw.Int(c)
	}
	tw.EndLine()
	tw.Word("viacap")
	tw.Int(d.ViaCapacity)
	tw.EndLine()
	for _, b := range d.Blockages {
		tw.Word("blockage")
		tw.Int(b.Layer)
		tw.Int(b.Region.Lo.X)
		tw.Int(b.Region.Lo.Y)
		tw.Int(b.Region.Hi.X)
		tw.Int(b.Region.Hi.Y)
		tw.Fixed4(b.Density)
		tw.EndLine()
	}
	for _, n := range d.Nets {
		tw.Word("net")
		tw.Word(n.Name)
		tw.Int(len(n.Pins))
		tw.EndLine()
		for _, p := range n.Pins {
			tw.Word("pin")
			tw.Int(p.Pos.X)
			tw.Int(p.Pos.Y)
			tw.Int(p.Layer)
			tw.EndLine()
		}
	}
	tw.Word("end")
	tw.EndLine()
	return tw.Flush()
}

// Nets and pins are carved from slabs of these sizes rather than allocated
// one by one. A net reserves at most pinSlab pins from its declared count,
// so that a hostile count cannot force a huge allocation; a larger net's
// pins still arrive by append.
const (
	netSlab = 256
	pinSlab = 1024
)

// Read parses a design in the format produced by Write and validates it.
// Every malformed line is an error naming its line number.
func Read(r io.Reader) (*Design, error) {
	tr := textio.NewReader(r)
	d := &Design{ViaCapacity: defaultViaCap}
	var cur *Net
	var nets []Net
	var pins []Pin
	pinsLeft := 0
	var haveDesign, haveCaps, haveViaCap bool
	for {
		f, err := tr.Next()
		if err == io.EOF {
			return nil, errors.New("design: missing end directive")
		}
		if err != nil {
			return nil, fmt.Errorf("line %d: %w", tr.Line(), err)
		}
		if len(f) == 0 || f[0][0] == '#' {
			continue
		}
		line := tr.Line()
		if pinsLeft > 0 && string(f[0]) != "pin" {
			return nil, fmt.Errorf("line %d: net %s declares %d pins, has %d",
				line, cur.Name, len(cur.Pins)+pinsLeft, len(cur.Pins))
		}
		switch string(f[0]) {
		case "design":
			if len(f) != 5 {
				return nil, fmt.Errorf("line %d: design wants 4 args", line)
			}
			if haveDesign {
				return nil, fmt.Errorf("line %d: second design line", line)
			}
			haveDesign = true
			d.Name = string(f[1])
			if err := ints(f[2:], &d.GridW, &d.GridH, &d.NumLayers); err != nil {
				return nil, fmt.Errorf("line %d: design: %w", line, err)
			}
		case "caps":
			if haveCaps {
				return nil, fmt.Errorf("line %d: second caps line", line)
			}
			haveCaps = true
			d.LayerCapacity = make([]int, len(f)-1)
			for i, x := range f[1:] {
				c, ok := textio.Int(x)
				if !ok {
					return nil, fmt.Errorf("line %d: bad capacity %q", line, x)
				}
				d.LayerCapacity[i] = c
			}
		case "viacap":
			if len(f) != 2 {
				return nil, fmt.Errorf("line %d: viacap wants 1 arg", line)
			}
			if haveViaCap {
				return nil, fmt.Errorf("line %d: second viacap line", line)
			}
			haveViaCap = true
			if err := ints(f[1:], &d.ViaCapacity); err != nil {
				return nil, fmt.Errorf("line %d: viacap: %w", line, err)
			}
		case "blockage":
			if len(f) != 7 {
				return nil, fmt.Errorf("line %d: blockage wants 6 args", line)
			}
			var b Blockage
			if err := ints(f[1:6], &b.Layer, &b.Region.Lo.X, &b.Region.Lo.Y,
				&b.Region.Hi.X, &b.Region.Hi.Y); err != nil {
				return nil, fmt.Errorf("line %d: blockage: %w", line, err)
			}
			if b.Density, err = strconv.ParseFloat(string(f[6]), 64); err != nil {
				return nil, fmt.Errorf("line %d: blockage: bad density %q", line, f[6])
			}
			d.Blockages = append(d.Blockages, b)
		case "net":
			if len(f) != 3 {
				return nil, fmt.Errorf("line %d: net wants 2 args", line)
			}
			if err := ints(f[2:], &pinsLeft); err != nil || pinsLeft < 0 {
				return nil, fmt.Errorf("line %d: net: bad pin count %q", line, f[2])
			}
			if len(nets) == 0 {
				nets = make([]Net, netSlab)
			}
			cur, nets = &nets[0], nets[1:]
			n := min(pinsLeft, pinSlab)
			if len(pins) < n {
				pins = make([]Pin, pinSlab)
			}
			*cur = Net{ID: len(d.Nets), Name: string(f[1]), Pins: pins[:0:n]}
			pins = pins[n:]
			d.Nets = append(d.Nets, cur)
		case "pin":
			if pinsLeft == 0 {
				return nil, fmt.Errorf("line %d: pin outside net", line)
			}
			if len(f) != 4 {
				return nil, fmt.Errorf("line %d: pin wants 3 args", line)
			}
			var p Pin
			if err := ints(f[1:], &p.Pos.X, &p.Pos.Y, &p.Layer); err != nil {
				return nil, fmt.Errorf("line %d: pin: %w", line, err)
			}
			cur.Pins = append(cur.Pins, p)
			pinsLeft--
		case "end":
			if err := d.Validate(); err != nil {
				return nil, err
			}
			return d, nil
		default:
			return nil, fmt.Errorf("line %d: unknown directive %q", line, f[0])
		}
	}
}

// ints parses fields as whole decimal integers into dst, in order; the
// caller has checked that there are as many fields as targets.
func ints(fields [][]byte, dst ...*int) error {
	for i, p := range dst {
		v, ok := textio.Int(fields[i])
		if !ok {
			return fmt.Errorf("bad integer %q", fields[i])
		}
		*p = v
	}
	return nil
}
