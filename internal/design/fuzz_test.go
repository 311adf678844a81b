package design

import (
	"bytes"
	"reflect"
	"strings"
	"testing"
)

// FuzzRead hardens the design parser: arbitrary input must never panic;
// anything it accepts must be a valid design, accepted as an equal design
// by the laxer fmt reader it replaced, and Write(Read(x)) must be a fixed
// point of Write∘Read.
func FuzzRead(f *testing.F) {
	var seed bytes.Buffer
	if err := Write(&seed, MustGenerate("18test5m", 0.003)); err != nil {
		f.Fatal(err)
	}
	f.Add(seed.String())
	f.Add("design x 10 10 3\ncaps 1 8 8\nviacap 4\nnet n0 2\npin 1 1 1\npin 5 5 1\nend\n")
	f.Add("design x 10 10 3\ncaps 1 8 8\nblockage 2 0 0 5 5 0.5\nend\n")
	f.Add("design x 10 10 3\ncaps 1 8 8\nblockage 2 0 0 5 5 nan\nnet n0 2\npin 1 1 1\npin 5 5 1\nend\n")
	f.Add("# c\n\ndesign x +10 010 3\ncaps 1 8 +8\nnet n \u00850 2\npin 1 1 1\npin 5 5 1\nend\nafter\n")
	f.Add("")
	f.Add("garbage\n")
	f.Add("net orphan 1\npin 0 0 1\nend\n")
	f.Add("design x -1 -1 0\nend\n")

	f.Fuzz(func(t *testing.T, input string) {
		d, err := Read(strings.NewReader(input))
		if err != nil {
			return // rejecting is fine; panicking is not
		}
		if err := d.Validate(); err != nil {
			t.Fatalf("Read accepted an invalid design: %v", err)
		}
		ref, err := oracleRead(strings.NewReader(input))
		if err != nil {
			t.Fatalf("Read accepted what the fmt reader rejects: %v", err)
		}
		if !reflect.DeepEqual(d, ref) {
			t.Fatalf("Read and the fmt reader disagree:\n%+v\n%+v", d, ref)
		}
		var once, twice bytes.Buffer
		if err := Write(&once, d); err != nil {
			t.Fatalf("Write failed on accepted design: %v", err)
		}
		d2, err := Read(bytes.NewReader(once.Bytes()))
		if err != nil {
			t.Fatalf("round trip failed: %v", err)
		}
		if err := Write(&twice, d2); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(once.Bytes(), twice.Bytes()) {
			t.Fatal("Write(Read(Write(d))) differs from Write(d)")
		}
	})
}
