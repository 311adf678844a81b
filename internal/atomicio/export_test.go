package atomicio

import (
	"os"
	"testing"
)

// Faults is the test seam on AppendLine's file operations: it counts the
// bytes that reach the file, and each non-nil error fails the next such
// operation once.
type Faults struct {
	Written  int64 // bytes written through the seam
	Short    error // the next write lands half its bytes, then fails
	Write    error // the next write fails before writing anything
	Sync     error
	Truncate error
}

// take returns *e and clears it, so an injected fault fires once.
func take(e *error) error {
	err := *e
	*e = nil
	return err
}

// Inject routes AppendLine's writes, fsyncs and rollback truncates
// through fl until the test ends.
func Inject(t testing.TB, fl *Faults) {
	w, s, tr := write, fsync, truncate
	t.Cleanup(func() { write, fsync, truncate = w, s, tr })
	write = func(f *os.File, p []byte) (int, error) {
		if err := take(&fl.Short); err != nil {
			n, _ := w(f, p[:len(p)/2])
			fl.Written += int64(n)
			return n, err
		}
		if err := take(&fl.Write); err != nil {
			return 0, err
		}
		n, err := w(f, p)
		fl.Written += int64(n)
		return n, err
	}
	fsync = func(f *os.File) error {
		if err := take(&fl.Sync); err != nil {
			return err
		}
		return s(f)
	}
	truncate = func(f *os.File, size int64) error {
		if err := take(&fl.Truncate); err != nil {
			return err
		}
		return tr(f, size)
	}
}
