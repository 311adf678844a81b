package guide

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"reflect"
	"strings"
	"testing"
)

// oracleWrite is the fmt-based writer the textio one replaced, kept as the
// reference Write's bytes are held to.
func oracleWrite(w io.Writer, guides []Guide) error {
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

func TestWriteMatchesOracle(t *testing.T) {
	guides := FromResult(routedResult(t))
	guides = append(guides, Guide{Net: "no boxes"}, Guide{Net: "neg", Boxes: []Box{{Layer: -1}}})
	var got, want bytes.Buffer
	if err := Write(&got, guides); err != nil {
		t.Fatal(err)
	}
	if err := oracleWrite(&want, guides); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatal("Write differs from the fmt writer")
	}
}

// writeAllocsCeiling bounds Write's allocations, whatever the guide count:
// the line writer and its buffer (measured: 1).
const writeAllocsCeiling = 2

func TestWriteAllocsConstant(t *testing.T) {
	one := FromResult(routedResult(t))
	var guides []Guide
	for range 20 { // past several flushes of the line writer
		guides = append(guides, one...)
	}
	small := testing.AllocsPerRun(5, func() { Write(io.Discard, guides[:3]) })
	large := testing.AllocsPerRun(5, func() { Write(io.Discard, guides) })
	t.Logf("Write: %v allocs for 3 guides, %v for %d", small, large, len(guides))
	if large != small || large > writeAllocsCeiling {
		t.Fatalf("Write allocates %v for 3 guides and %v for %d, want one constant <= %d",
			small, large, len(guides), writeAllocsCeiling)
	}
}

// FuzzRead hardens the guide parser: arbitrary input must never panic, and
// what it accepts must survive Write and Read unchanged, with Write's bytes
// a fixed point.
func FuzzRead(f *testing.F) {
	var seed bytes.Buffer
	if err := Write(&seed, FromResult(routedResult(f))); err != nil {
		f.Fatal(err)
	}
	f.Add(seed.String())
	for _, line := range []string{"1 2 3 4", "1 2 3 4 5 6", "1 2 3 4 x", "a 2 3 4 1", "1.5 2 3 4 1",
		"1 2 3 4 0", "1 2 3 4 -2", "-1 2 3 4 1", "5 2 3 4 1", "1 9 3 4 1", "7 7 7 7 1", "  1\t2  3 4   2 "} {
		f.Add("netA\n(\n" + line + "\n)\n")
	}
	f.Fuzz(func(t *testing.T, input string) {
		g, err := Read(strings.NewReader(input))
		if err != nil {
			return
		}
		var once, twice bytes.Buffer
		if err := Write(&once, g); err != nil {
			t.Fatal(err)
		}
		back, err := Read(bytes.NewReader(once.Bytes()))
		if err != nil {
			t.Fatalf("written guides do not re-read: %v", err)
		}
		if !reflect.DeepEqual(back, g) {
			t.Fatalf("round trip changed the guides:\n%+v\n%+v", g, back)
		}
		if err := Write(&twice, back); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(once.Bytes(), twice.Bytes()) {
			t.Fatal("Write(Read(Write(g))) differs from Write(g)")
		}
	})
}
