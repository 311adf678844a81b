package bench

import (
	"bytes"
	"strings"
	"testing"
)

func TestZeroCopyAblation(t *testing.T) {
	s := NewSuite(Config{Scale: 0.003, Designs: []string{"18test5m"}})
	rows := ZeroCopyAblation(s)
	if len(rows) != 1 {
		t.Fatalf("rows = %d", len(rows))
	}
	r := rows[0]
	// Explicit PCIe copies must cost more than zero-copy mapping: the paper
	// adopts zero-copy exactly because transfers would otherwise dominate.
	if r.PCIe <= r.ZeroCopy {
		t.Fatalf("PCIe pattern time %v not above zero-copy %v", r.PCIe, r.ZeroCopy)
	}
	if r.TransferGain <= 1 {
		t.Fatalf("transfer gain %v", r.TransferGain)
	}
	var buf bytes.Buffer
	PrintZeroCopyAblation(&buf, rows)
	if !strings.Contains(buf.String(), "zero-copy") {
		t.Fatal("printout incomplete")
	}
}

func TestEdgeShiftAblation(t *testing.T) {
	s := NewSuite(Config{Scale: 0.003, Designs: []string{"18test5m"}})
	rows := EdgeShiftAblation(s)
	if len(rows) != 1 {
		t.Fatalf("rows = %d", len(rows))
	}
	r := rows[0]
	if r.ScoreWith <= 0 || r.ScoreWithout <= 0 {
		t.Fatalf("empty ablation row: %+v", r)
	}
	// Shifting reacts only to blockage-induced cost gradients at planning
	// time (the grid is empty before the pattern stage), so on designs whose
	// Steiner points avoid blockages both runs may legitimately coincide;
	// the flag's effect on trees is asserted in the stt package tests.
	var buf bytes.Buffer
	PrintEdgeShiftAblation(&buf, rows)
	if !strings.Contains(buf.String(), "edge shifting") {
		t.Fatal("printout incomplete")
	}
}

func TestDeviceSweep(t *testing.T) {
	s := NewSuite(Config{Scale: 0.003, Designs: []string{"18test5m"}})
	rows := DeviceSweep(s, "18test5m")
	if len(rows) != 4 {
		t.Fatalf("rows = %d", len(rows))
	}
	// More SMs never slow the pattern stage down.
	for i := 1; i < len(rows); i++ {
		if rows[i].SMs <= rows[i-1].SMs {
			t.Fatal("sweep not ascending in SM count")
		}
		if rows[i].Pattern > rows[i-1].Pattern {
			t.Fatalf("pattern time grew with more SMs: %v -> %v",
				rows[i-1].Pattern, rows[i].Pattern)
		}
	}
	var buf bytes.Buffer
	PrintDeviceSweep(&buf, rows)
	if !strings.Contains(buf.String(), "SM count") {
		t.Fatal("printout incomplete")
	}
}

func TestStaircaseAblation(t *testing.T) {
	s := NewSuite(Config{Scale: 0.003, Designs: []string{"18test5m"}})
	rows := StaircaseAblation(s)
	if len(rows) != 1 {
		t.Fatalf("rows = %d", len(rows))
	}
	r := rows[0]
	// The staircase kernel evaluates strictly more candidates: its modeled
	// pattern time cannot be below the hybrid kernel's.
	if r.StairTime < r.HybridTime {
		t.Fatalf("staircase pattern time %v below hybrid %v", r.StairTime, r.HybridTime)
	}
	if r.StairScore <= 0 || r.HybridScore <= 0 {
		t.Fatalf("empty row: %+v", r)
	}
	var buf bytes.Buffer
	PrintStaircaseAblation(&buf, rows)
	if !strings.Contains(buf.String(), "staircase") {
		t.Fatal("printout incomplete")
	}
}

func TestHistoryAblation(t *testing.T) {
	s := NewSuite(Config{Scale: 0.003, Designs: []string{"18test5m"}})
	rows := HistoryAblation(s)
	if len(rows) != 1 {
		t.Fatalf("rows = %d", len(rows))
	}
	r := rows[0]
	if r.PlainScore <= 0 || r.HistScore <= 0 {
		t.Fatalf("empty row: %+v", r)
	}
	var buf bytes.Buffer
	PrintHistoryAblation(&buf, rows)
	if !strings.Contains(buf.String(), "negotiated") {
		t.Fatal("printout incomplete")
	}
}
