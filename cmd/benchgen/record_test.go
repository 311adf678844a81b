package main

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"
)

// TestWriteRecordOnlyOnPassingGate: a failing gate returns its error and
// leaves the target file's bytes as they were; a passing one replaces
// them with the record.
func TestWriteRecordOnlyOnPassingGate(t *testing.T) {
	path := filepath.Join(t.TempDir(), "BENCH_x.json")
	committed := []byte("{\"committed\": true}\n")
	if err := os.WriteFile(path, committed, 0o644); err != nil {
		t.Fatal(err)
	}
	rep := struct {
		Ratio float64 `json:"ratio"`
	}{1.63}

	breach := errors.New("ratio 1.63 over the 1.5 gate")
	if err := writeRecord(path, "test record", rep, breach); err != breach {
		t.Fatalf("failing gate returned %v, want the gate error", err)
	}
	if got, _ := os.ReadFile(path); !bytes.Equal(got, committed) {
		t.Fatalf("failing gate rewrote the record: %q", got)
	}

	if err := writeRecord(path, "test record", rep, nil); err != nil {
		t.Fatal(err)
	}
	if got, _ := os.ReadFile(path); !bytes.Equal(got, []byte("{\n  \"ratio\": 1.63\n}\n")) {
		t.Fatalf("passing gate wrote %q", got)
	}
}
