package textio

import (
	"bytes"
	"errors"
	"io"
	"math"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// lines reads every line of input through a Reader.
func lines(t *testing.T, input string) (fields [][]string, texts []string) {
	t.Helper()
	r := NewReader(strings.NewReader(input))
	for {
		f, err := r.Next()
		if err == io.EOF {
			return fields, texts
		}
		if err != nil {
			t.Fatalf("line %d: %v", r.Line(), err)
		}
		var fs []string
		for _, b := range f {
			fs = append(fs, string(b))
		}
		fields, texts = append(fields, fs), append(texts, string(r.Text()))
		if r.Line() != len(fields) {
			t.Fatalf("Line() = %d after %d lines", r.Line(), len(fields))
		}
	}
}

// FuzzFields holds the split to strings.Fields and Text to
// strings.TrimSpace, line by line, on any input that fits the line bound.
func FuzzFields(f *testing.F) {
	for _, s := range []string{"", "\n", "pin 1 2 3\nnet a 2", "  a\tb \r\n\n c\v\fd ",
		"a b\u0085c  d", "x\xffy \xc2", "é é　", "last line"} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, input string) {
		if len(input) >= MaxLine {
			return // a line could exceed the bound TestLineTooLong covers
		}
		fields, texts := lines(t, input)
		want := strings.SplitAfter(input, "\n")
		if want[len(want)-1] == "" {
			want = want[:len(want)-1]
		}
		if len(fields) != len(want) {
			t.Fatalf("%d lines, want %d", len(fields), len(want))
		}
		for i, line := range want {
			if w := strings.Fields(line); !slices.Equal(fields[i], w) {
				t.Fatalf("line %d %q: fields %q, strings.Fields %q", i+1, line, fields[i], w)
			}
			if w := strings.TrimSpace(line); texts[i] != w {
				t.Fatalf("line %d %q: text %q, strings.TrimSpace %q", i+1, line, texts[i], w)
			}
		}
	})
}

func TestLineTooLong(t *testing.T) {
	fits := strings.Repeat("x", MaxLine-1) + "\n"
	r := NewReader(strings.NewReader("a\n" + fits + fits + "x"))
	for range 3 {
		if _, err := r.Next(); err != nil {
			t.Fatalf("line %d of at most MaxLine bytes: %v", r.Line(), err)
		}
	}
	r = NewReader(strings.NewReader("a\n" + strings.Repeat("x", MaxLine) + "\n"))
	r.Next()
	if _, err := r.Next(); !errors.Is(err, ErrLineTooLong) || r.Line() != 2 {
		t.Fatalf("over-long line 2: err %v at line %d", err, r.Line())
	}
}

// FuzzInt holds Int to strconv.Atoi, which takes the same syntax.
func FuzzInt(f *testing.F) {
	for _, s := range []string{"0", "-0", "+7", "007", "-", "+", "", "1x", "x1", "1 ", "1_0", "0x10",
		"9223372036854775807", "9223372036854775808", "-9223372036854775808", "-9223372036854775809",
		"99999999999999999999", "00000000000000000000001"} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		v, ok := Int([]byte(s))
		w, err := strconv.Atoi(s)
		if ok != (err == nil) || v != w && ok {
			t.Fatalf("Int(%q) = %d, %v; strconv.Atoi = %d, %v", s, v, ok, w, err)
		}
	})
}

func TestWriterMatchesFmt(t *testing.T) {
	var got bytes.Buffer
	w := NewWriter(&got)
	var want strings.Builder
	for i := range 20000 { // past several flushes
		v := i*7919 - 50000
		w.Word("pin")
		w.Int(v)
		w.Int(math.MinInt + i)
		w.Fixed4(float64(v) / 3)
		w.EndLine()
		want.WriteString("pin " + strconv.Itoa(v) + " " + strconv.Itoa(math.MinInt+i) + " " +
			strconv.FormatFloat(float64(v)/3, 'f', 4, 64) + "\n")
	}
	w.EndLine()
	want.WriteString("\n")
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if got.String() != want.String() {
		t.Fatal("Writer output differs from the formatted lines")
	}
}

type failWriter struct{ n int }

func (f *failWriter) Write(p []byte) (int, error) {
	f.n++
	return 0, errors.New("disk full")
}

func TestWriterErrorSticks(t *testing.T) {
	fw := &failWriter{}
	w := NewWriter(fw)
	for range 20000 {
		w.Word("0123456789")
		w.EndLine()
	}
	if err := w.Flush(); err == nil || fw.n != 1 {
		t.Fatalf("Flush = %v after %d writes, want the first error and no retry", err, fw.n)
	}
}
