// Package textio is the lexer shared by the repository's two text formats,
// design files (design.Read/Write) and routing guides (guide.Read/Write).
// A Reader hands out one line at a time split into fields, reusing its
// buffers, so a parse allocates only what it keeps; Int parses a field as
// a whole decimal integer; a Writer formats lines into one reused buffer.
package textio

import (
	"bufio"
	"errors"
	"io"
	"math"
	"strconv"
	"unicode"
	"unicode/utf8"
)

// MaxLine is the longest line a Reader accepts, newline included.
const MaxLine = 64 << 10

// ErrLineTooLong is the error Next returns for a line over MaxLine bytes.
var ErrLineTooLong = errors.New("textio: line longer than 65536 bytes")

// class sorts bytes for the field split: ASCII white space separates
// fields, other ASCII bytes belong to them, and a byte of a multi-byte
// character sends the line to splitWide, where unicode.IsSpace decides.
// Together that is exactly the white space strings.Fields splits on.
const (
	inField = iota
	space
	wide
)

var class = func() (c [256]uint8) {
	for _, b := range "\t\n\v\f\r " {
		c[b] = space
	}
	for b := utf8.RuneSelf; b < len(c); b++ {
		c[b] = wide
	}
	return
}()

// Reader splits its input into lines and lines into white-space-separated
// fields. The fields and Text alias the Reader's buffer: they are valid
// until the next call to Next, so a caller copies out what it keeps.
type Reader struct {
	br     *bufio.Reader
	line   int
	text   []byte
	fields [][]byte
}

// NewReader returns a Reader over r.
func NewReader(r io.Reader) *Reader {
	return &Reader{br: bufio.NewReaderSize(r, MaxLine)}
}

// Next advances to the next line and returns its fields, none for a blank
// line. At the end of the input it returns io.EOF; a line over MaxLine
// bytes returns ErrLineTooLong, and a failed read its error.
func (r *Reader) Next() ([][]byte, error) {
	raw, err := r.br.ReadSlice('\n')
	if len(raw) == 0 && err != nil {
		return nil, err
	}
	r.line++
	if err == bufio.ErrBufferFull {
		return nil, ErrLineTooLong
	}
	if err != nil && err != io.EOF {
		return nil, err
	}
	r.fields = r.fields[:0]
	lo, hi := 0, 0
	for i := 0; i < len(raw); {
		for i < len(raw) && class[raw[i]] == space {
			i++
		}
		start := i
		for i < len(raw) && class[raw[i]] == inField {
			i++
		}
		if i < len(raw) && class[raw[i]] == wide {
			r.splitWide(raw)
			return r.fields, nil
		}
		if i > start {
			if len(r.fields) == 0 {
				lo = start
			}
			r.fields = append(r.fields, raw[start:i])
			hi = i
		}
	}
	r.text = raw[lo:hi]
	return r.fields, nil
}

// splitWide is the split of a line holding multi-byte characters. Next's
// byte loop is the ASCII fast path; it makes design.Read ~15% faster than
// this loop does alone.
func (r *Reader) splitWide(raw []byte) {
	r.fields = r.fields[:0]
	start, lo, hi := -1, 0, 0
	for i := 0; i <= len(raw); {
		sep, n := true, 1
		if i < len(raw) {
			if c := raw[i]; class[c] != wide {
				sep = class[c] == space
			} else {
				var ru rune
				ru, n = utf8.DecodeRune(raw[i:])
				sep = unicode.IsSpace(ru)
			}
		}
		if sep && start >= 0 {
			if len(r.fields) == 0 {
				lo = start
			}
			r.fields = append(r.fields, raw[start:i])
			start, hi = -1, i
		} else if !sep && start < 0 {
			start = i
		}
		i += n
	}
	r.text = raw[lo:hi]
}

// Line is the 1-based number of the line Next last returned.
func (r *Reader) Line() int { return r.line }

// Text is the current line without its leading and trailing white space.
func (r *Reader) Text() []byte { return r.text }

// Int parses b as a whole decimal integer with an optional sign. It reports
// false for anything else, trailing junk included, and for values outside
// int's range.
func Int(b []byte) (int, bool) {
	neg := len(b) > 0 && b[0] == '-'
	if len(b) > 0 && (neg || b[0] == '+') {
		b = b[1:]
	}
	if len(b) == 0 {
		return 0, false
	}
	limit := uint64(math.MaxInt)
	if neg {
		limit++
	}
	var u uint64
	for _, c := range b {
		d := c - '0'
		if d > 9 || u > limit/10 {
			return 0, false
		}
		u = u*10 + uint64(d)
	}
	if u > limit {
		return 0, false
	}
	if neg {
		return -int(u), true
	}
	return int(u), true
}

// flushAt is the buffered size past which a Writer hands its lines on.
const flushAt = 32 << 10

// Writer formats lines of space-separated fields into one reused buffer
// and writes them to the underlying writer in large pieces. The first
// write error sticks: later calls do nothing and Flush returns it.
type Writer struct {
	w      io.Writer
	buf    []byte
	fields int // fields on the current line
	err    error
}

// NewWriter returns a Writer to w.
func NewWriter(w io.Writer) *Writer {
	return &Writer{w: w, buf: make([]byte, 0, flushAt+4<<10)}
}

func (w *Writer) sep() {
	if w.fields > 0 {
		w.buf = append(w.buf, ' ')
	}
	w.fields++
}

// Word appends s as the next field.
func (w *Writer) Word(s string) {
	w.sep()
	w.buf = append(w.buf, s...)
}

// Int appends v in decimal as the next field.
func (w *Writer) Int(v int) {
	w.sep()
	w.buf = strconv.AppendInt(w.buf, int64(v), 10)
}

// Fixed4 appends f with four decimals, as fmt's %.4f prints it.
func (w *Writer) Fixed4(f float64) {
	w.sep()
	w.buf = strconv.AppendFloat(w.buf, f, 'f', 4, 64)
}

// EndLine ends the current line.
func (w *Writer) EndLine() {
	w.buf = append(w.buf, '\n')
	w.fields = 0
	if len(w.buf) >= flushAt {
		w.Flush()
	}
}

// Flush writes out every ended line and returns the first write error.
func (w *Writer) Flush() error {
	if w.err == nil && len(w.buf) > 0 {
		_, w.err = w.w.Write(w.buf)
	}
	w.buf = w.buf[:0]
	return w.err
}
