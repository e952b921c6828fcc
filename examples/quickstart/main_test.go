package main

import (
	"bytes"
	"os"
	"testing"

	"prodigy/internal/cpu"
)

// TestOutputGolden pins the example's stdout byte for byte.
func TestOutputGolden(t *testing.T) {
	var out bytes.Buffer
	if err := run(&out); err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile("testdata/out.golden")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out.Bytes(), want) {
		t.Errorf("stdout differs from testdata/out.golden:\n%s", out.Bytes())
	}
}

// TestProdigyBeatsBaseline checks the hand-registered DIG pays off:
// Prodigy finishes in fewer cycles and with fewer DRAM-stall cycles.
func TestProdigyBeatsBaseline(t *testing.T) {
	base, err := simulate(false)
	if err != nil {
		t.Fatal(err)
	}
	pro, err := simulate(true)
	if err != nil {
		t.Fatal(err)
	}
	if pro.Cycles >= base.Cycles {
		t.Fatalf("Prodigy did not help: %d vs %d cycles", pro.Cycles, base.Cycles)
	}
	if pro.Agg.Cycles[cpu.DRAMStall] >= base.Agg.Cycles[cpu.DRAMStall] {
		t.Fatal("DRAM stalls did not shrink")
	}
}
