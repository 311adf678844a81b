package design

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"math"
	"reflect"
	"strings"
	"testing"
)

// oracleWrite and oracleRead are the fmt-based codec the textio one
// replaced, kept as the reference it is held to: Write must produce the
// same bytes, and whatever Read accepts oracleRead must accept as an equal
// Design (it is laxer: it ignores trailing junk in numbers, short nets and
// repeated header lines).
func oracleWrite(w io.Writer, d *Design) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "design %s %d %d %d\n", d.Name, d.GridW, d.GridH, d.NumLayers)
	fmt.Fprint(bw, "caps")
	for _, c := range d.LayerCapacity {
		fmt.Fprintf(bw, " %d", c)
	}
	fmt.Fprintln(bw)
	fmt.Fprintf(bw, "viacap %d\n", d.ViaCapacity)
	for _, b := range d.Blockages {
		fmt.Fprintf(bw, "blockage %d %d %d %d %d %.4f\n",
			b.Layer, b.Region.Lo.X, b.Region.Lo.Y, b.Region.Hi.X, b.Region.Hi.Y, b.Density)
	}
	for _, n := range d.Nets {
		fmt.Fprintf(bw, "net %s %d\n", n.Name, len(n.Pins))
		for _, p := range n.Pins {
			fmt.Fprintf(bw, "pin %d %d %d\n", p.Pos.X, p.Pos.Y, p.Layer)
		}
	}
	fmt.Fprintln(bw, "end")
	return bw.Flush()
}

func oracleRead(r io.Reader) (*Design, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	d := &Design{ViaCapacity: defaultViaCap}
	var cur *Net
	pinsLeft := 0
	line := 0
	for sc.Scan() {
		line++
		fields := strings.Fields(sc.Text())
		if len(fields) == 0 || strings.HasPrefix(fields[0], "#") {
			continue
		}
		switch fields[0] {
		case "design":
			if len(fields) != 5 {
				return nil, fmt.Errorf("line %d: design wants 4 args", line)
			}
			d.Name = fields[1]
			if _, err := fmt.Sscanf(strings.Join(fields[2:], " "), "%d %d %d",
				&d.GridW, &d.GridH, &d.NumLayers); err != nil {
				return nil, fmt.Errorf("line %d: %v", line, err)
			}
		case "caps":
			for _, f := range fields[1:] {
				var c int
				if _, err := fmt.Sscanf(f, "%d", &c); err != nil {
					return nil, fmt.Errorf("line %d: bad capacity %q", line, f)
				}
				d.LayerCapacity = append(d.LayerCapacity, c)
			}
		case "viacap":
			if len(fields) != 2 {
				return nil, fmt.Errorf("line %d: viacap wants 1 arg", line)
			}
			if _, err := fmt.Sscanf(fields[1], "%d", &d.ViaCapacity); err != nil {
				return nil, fmt.Errorf("line %d: %v", line, err)
			}
		case "blockage":
			if len(fields) != 7 {
				return nil, fmt.Errorf("line %d: blockage wants 6 args", line)
			}
			var b Blockage
			if _, err := fmt.Sscanf(strings.Join(fields[1:], " "), "%d %d %d %d %d %f",
				&b.Layer, &b.Region.Lo.X, &b.Region.Lo.Y,
				&b.Region.Hi.X, &b.Region.Hi.Y, &b.Density); err != nil {
				return nil, fmt.Errorf("line %d: %v", line, err)
			}
			d.Blockages = append(d.Blockages, b)
		case "net":
			if len(fields) != 3 {
				return nil, fmt.Errorf("line %d: net wants 2 args", line)
			}
			cur = &Net{ID: len(d.Nets), Name: fields[1]}
			if _, err := fmt.Sscanf(fields[2], "%d", &pinsLeft); err != nil {
				return nil, fmt.Errorf("line %d: %v", line, err)
			}
			d.Nets = append(d.Nets, cur)
		case "pin":
			if cur == nil || pinsLeft <= 0 {
				return nil, fmt.Errorf("line %d: pin outside net", line)
			}
			var p Pin
			if _, err := fmt.Sscanf(strings.Join(fields[1:], " "), "%d %d %d",
				&p.Pos.X, &p.Pos.Y, &p.Layer); err != nil {
				return nil, fmt.Errorf("line %d: %v", line, err)
			}
			cur.Pins = append(cur.Pins, p)
			pinsLeft--
		case "end":
			if err := d.Validate(); err != nil {
				return nil, err
			}
			return d, nil
		default:
			return nil, fmt.Errorf("line %d: unknown directive %q", line, fields[0])
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return nil, fmt.Errorf("design: missing end directive")
}

// TestCodecMatchesOracle holds the codec to the fmt one on every benchmark
// design: Write's bytes are identical and Read's design deep-equal.
func TestCodecMatchesOracle(t *testing.T) {
	for _, name := range AllNames() {
		d := MustGenerate(name, 0.002)
		var got, want bytes.Buffer
		if err := Write(&got, d); err != nil {
			t.Fatal(err)
		}
		if err := oracleWrite(&want, d); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Fatalf("%s: Write differs from the fmt writer", name)
		}
		back, err := Read(bytes.NewReader(got.Bytes()))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		ref, err := oracleRead(bytes.NewReader(got.Bytes()))
		if err != nil {
			t.Fatalf("%s: oracle: %v", name, err)
		}
		if !reflect.DeepEqual(back, ref) {
			t.Fatalf("%s: Read differs from the fmt reader", name)
		}
	}
}

// TestWriteFloatsLikeFmt pins the density field to %.4f on the values
// strconv and fmt could format differently: signs, zeros and non-finite
// values.
func TestWriteFloatsLikeFmt(t *testing.T) {
	for _, v := range []float64{0.5, 1, 0.00004, 0.00005, 0.99995, -0.00001, math.Copysign(0, -1),
		123456.789, 1e300, math.Inf(1), math.Inf(-1), math.NaN()} {
		d := &Design{Blockages: []Blockage{{Density: v}}}
		var got, want bytes.Buffer
		Write(&got, d)
		oracleWrite(&want, d)
		if got.String() != want.String() {
			t.Errorf("density %v: %q, fmt writes %q", v, got.String(), want.String())
		}
	}
}
