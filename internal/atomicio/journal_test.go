package atomicio

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
)

// records is a small log: ASCII and multi-byte records, so some byte
// prefixes end mid-rune as well as mid-record.
var records = []string{
	`{"seq":0,"kind":"submit","id":"job-000001"}`,
	`{}`,
	`{"seq":2,"data":[1,2,3],"note":"grüße"}`,
	`{"seq":3,"state":"done"}`,
}

func appendAll(t *testing.T, path string, recs []string) {
	t.Helper()
	for _, r := range recs {
		if err := AppendLine(path, []byte(r)); err != nil {
			t.Fatal(err)
		}
	}
}

func readFile(t *testing.T, path string) []byte {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestEveryBytePrefixReopens is the torn-tail proof: appends frame each
// record with one '\n', a crash mid-append leaves some byte prefix of
// the log, and every byte prefix (a missing log too) must reopen
// to exactly its complete lines, cut the rest off the file, and take a
// further append that leaves every line parseable.
func TestEveryBytePrefixReopens(t *testing.T) {
	dir := t.TempDir()
	full := filepath.Join(dir, "full.jsonl")
	appendAll(t, full, records)
	raw := readFile(t, full)
	if want := strings.Join(records, "\n") + "\n"; string(raw) != want {
		t.Fatalf("log bytes:\n%s\nwant:\n%s", raw, want)
	}
	if lines, err := ReadLines(filepath.Join(dir, "missing.jsonl")); err != nil || len(lines) != 0 {
		t.Fatalf("missing log: %d lines, err %v", len(lines), err)
	}
	const after = `{"after":true}`
	for b := 0; b <= len(raw); b++ {
		path := filepath.Join(dir, fmt.Sprintf("prefix%d.jsonl", b))
		if err := os.WriteFile(path, raw[:b], 0o644); err != nil {
			t.Fatal(err)
		}
		lines, err := ReadLines(path)
		if err != nil {
			t.Fatalf("prefix %d: %v", b, err)
		}
		k := bytes.Count(raw[:b], []byte{'\n'})
		if len(lines) != k {
			t.Fatalf("prefix %d: %d lines, want %d", b, len(lines), k)
		}
		for i, l := range lines {
			if string(l) != records[i] {
				t.Fatalf("prefix %d line %d = %q, want %q", b, i, l, records[i])
			}
		}
		if got := readFile(t, path); !bytes.Equal(got, raw[:bytes.LastIndexByte(raw[:b], '\n')+1]) {
			t.Fatalf("prefix %d: torn tail not cut: %q", b, got)
		}
		if err := AppendLine(path, []byte(after)); err != nil {
			t.Fatalf("prefix %d: append after reopen: %v", b, err)
		}
		lines, err = ReadLines(path)
		if err != nil || len(lines) != k+1 || string(lines[k]) != after {
			t.Fatalf("prefix %d: reopened append gave %q (err %v)", b, lines, err)
		}
		for i, l := range lines {
			if !json.Valid(l) {
				t.Fatalf("prefix %d: line %d does not parse: %q", b, i, l)
			}
		}
	}
}

// TestAppendFaultsRollBack injects each failure an append can meet: the
// file must be byte-identical to what it was before the append, and the
// next append must succeed.
func TestAppendFaultsRollBack(t *testing.T) {
	for _, tc := range []struct {
		name string
		fl   Faults
		want error
	}{
		{"short write", Faults{Short: syscall.ENOSPC}, syscall.ENOSPC},
		{"ENOSPC", Faults{Write: syscall.ENOSPC}, syscall.ENOSPC},
		{"fsync", Faults{Sync: syscall.EIO}, syscall.EIO},
	} {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "log.jsonl")
			appendAll(t, path, records[:2])
			before := readFile(t, path)
			fl := tc.fl
			Inject(t, &fl)
			if err := AppendLine(path, []byte(records[2])); !errors.Is(err, tc.want) {
				t.Fatalf("append under fault: err %v, want %v", err, tc.want)
			}
			if got := readFile(t, path); !bytes.Equal(got, before) {
				t.Fatalf("failed append left %q, want %q", got, before)
			}
			appendAll(t, path, records[3:])
			if got := readFile(t, path); !bytes.Equal(got, append(before, records[3]+"\n"...)) {
				t.Fatalf("append after rollback: %q", got)
			}
		})
	}
}

// TestFailedRollbackBlocksAppends: when the rollback truncate fails
// too, the tail is unknown, so every later append fails until ReadLines
// replays the log, which cuts the torn half-record off.
func TestFailedRollbackBlocksAppends(t *testing.T) {
	path := filepath.Join(t.TempDir(), "log.jsonl")
	appendAll(t, path, records[:2])
	before := readFile(t, path)
	fl := Faults{Short: syscall.ENOSPC, Truncate: syscall.EIO}
	Inject(t, &fl)
	if err := AppendLine(path, []byte(records[2])); !errors.Is(err, syscall.ENOSPC) {
		t.Fatalf("append under fault: %v", err)
	}
	torn := readFile(t, path)
	for i := 0; i < 3; i++ {
		if err := AppendLine(path, []byte(records[3])); !errors.Is(err, syscall.EIO) {
			t.Fatalf("append %d after a failed rollback: err %v, want the rollback's EIO", i, err)
		}
	}
	if got := readFile(t, path); !bytes.Equal(got, torn) {
		t.Fatalf("blocked appends touched the file: %q", got)
	}
	lines, err := ReadLines(path)
	if err != nil || len(lines) != 2 {
		t.Fatalf("replay after failed rollback: %q, err %v", lines, err)
	}
	if got := readFile(t, path); !bytes.Equal(got, before) {
		t.Fatalf("replay left %q, want %q", got, before)
	}
	appendAll(t, path, records[3:])
}
