// Package atomicio writes durable files crash-safely, by two protocols.
// An artifact (Create/Commit, WriteFile) is replaced whole through a temp
// file and os.Rename, so a crash leaves the old file or the new one, plus
// at worst a *.tmp. A journal (AppendLine, ReadLines) grows by one fsynced
// line per record, O(n) bytes in all; a failed append is rolled back, so a
// crash leaves the acknowledged records plus at worst a torn tail.
package atomicio

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"sync"
)

// File is an in-progress atomic write. Write content, then Commit to
// publish it under the final name, or Abort to discard it. Exactly one
// of the two must be called; Abort after Commit is a no-op, so
// `defer f.Abort()` right after Create is the idiomatic cleanup.
type File struct {
	tmp  *os.File
	path string
	done bool
}

// Create opens a temp file next to path (same directory, so the final
// rename cannot cross filesystems).
func Create(path string) (*File, error) {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp*")
	if err != nil {
		return nil, fmt.Errorf("atomicio: %w", err)
	}
	return &File{tmp: tmp, path: path}, nil
}

// Write appends to the temp file.
func (f *File) Write(p []byte) (int, error) { return f.tmp.Write(p) }

// Commit flushes the temp file to disk and renames it over the final
// path. On any error the temp file is removed and the destination is
// untouched.
func (f *File) Commit() error {
	if f.done {
		return fmt.Errorf("atomicio: double commit of %s", f.path)
	}
	f.done = true
	if err := f.tmp.Sync(); err != nil {
		f.discard()
		return fmt.Errorf("atomicio: sync %s: %w", f.path, err)
	}
	if err := f.tmp.Close(); err != nil {
		os.Remove(f.tmp.Name())
		return fmt.Errorf("atomicio: close %s: %w", f.path, err)
	}
	if err := os.Rename(f.tmp.Name(), f.path); err != nil {
		os.Remove(f.tmp.Name())
		return fmt.Errorf("atomicio: publish %s: %w", f.path, err)
	}
	return nil
}

// Abort discards the temp file, leaving the destination untouched. Safe
// to call after Commit (no-op), which makes it deferrable.
func (f *File) Abort() {
	if f.done {
		return
	}
	f.done = true
	f.discard()
}

func (f *File) discard() {
	f.tmp.Close()
	os.Remove(f.tmp.Name())
}

// WriteFile is the one-shot convenience: atomically replace path's
// content. The crash-safe sibling of os.WriteFile.
func WriteFile(path string, data []byte) error {
	f, err := Create(path)
	if err != nil {
		return err
	}
	defer f.Abort()
	if _, err := f.Write(data); err != nil {
		return fmt.Errorf("atomicio: write %s: %w", path, err)
	}
	return f.Commit()
}

// The file operations of an append; tests swap them to inject faults.
var write, fsync, truncate = (*os.File).Write, (*os.File).Sync, (*os.File).Truncate

// broken maps a log whose rollback failed to that error, until replay.
var broken sync.Map

// AppendLine appends rec and its '\n' to the log at path (created if
// missing) in one write, fsynced before it returns nil. On failure it
// truncates the file back to its size before the call; if that fails
// too, every later append to path fails until ReadLines replays it.
// Callers serialize the appends to one path.
func AppendLine(path string, rec []byte) error {
	if err, ok := broken.Load(path); ok {
		return fmt.Errorf("atomicio: %s needs a replay after a failed rollback: %w", path, err.(error))
	}
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND|os.O_CREATE, 0o644)
	if err != nil {
		return fmt.Errorf("atomicio: %w", err)
	}
	defer f.Close() // a close error cannot unwrite a synced record
	fi, err := f.Stat()
	if err != nil {
		return fmt.Errorf("atomicio: %w", err)
	}
	if _, err = write(f, append(rec[:len(rec):len(rec)], '\n')); err == nil {
		if err = fsync(f); err == nil {
			return nil
		}
	}
	if terr := truncate(f, fi.Size()); terr != nil {
		broken.Store(path, terr)
	}
	return fmt.Errorf("atomicio: append %s: %w", path, err)
}

// ReadLines replays the log at path: it returns every newline-terminated
// line without its '\n' (none for a missing file) and truncates the torn
// tail, whatever follows the last '\n', so the next append starts a line.
func ReadLines(path string) ([][]byte, error) {
	raw, err := os.ReadFile(path)
	end := bytes.LastIndexByte(raw, '\n') + 1
	if err == nil && end < len(raw) {
		err = os.Truncate(path, int64(end))
	}
	if err != nil && !os.IsNotExist(err) {
		return nil, fmt.Errorf("atomicio: replay %s: %w", path, err)
	}
	broken.Delete(path)
	lines := bytes.Split(raw[:end], []byte{'\n'})
	return lines[:len(lines)-1], nil
}
