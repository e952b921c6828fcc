package main

import (
	"bytes"
	"flag"
	"os"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files")

// TestBFSGolden pins the first lines of bfs-po's per-core streams at
// ScaleTiny: kinds, PCs, addresses and the DIG node each access falls
// in. Any change to the trace encoding or a kernel's emission order
// shows here as a diff.
func TestBFSGolden(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run(&stdout, &stderr, []string{"-algo", "bfs", "-dataset", "po", "-n", "40"}); code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, stderr.String())
	}
	const path = "testdata/bfs-po.golden"
	if *update {
		if err := os.WriteFile(path, stdout.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(stdout.Bytes(), want) {
		t.Errorf("output differs from %s (rerun with -update to accept):\n%s", path, stdout.String())
	}
}

func TestSingleCore(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run(&stdout, &stderr, []string{"-algo", "pr", "-core", "1", "-n", "3"}); code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, stderr.String())
	}
	out := stdout.String()
	if !strings.HasPrefix(out, "--- core 1 ") || strings.Contains(out, "--- core 0 ") {
		t.Errorf("-core 1 printed another core:\n%s", out)
	}
	if lines := strings.Count(out, "\n"); lines != 4 { // header + 3
		t.Errorf("%d lines, want 4:\n%s", lines, out)
	}
}

func TestUnknownAlgoExitsOne(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run(&stdout, &stderr, []string{"-algo", "nope"}); code != 1 {
		t.Fatalf("exit %d, want 1", code)
	}
	if stderr.Len() == 0 {
		t.Error("no error on stderr")
	}
}

func TestBadFlagExitsTwo(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run(&stdout, &stderr, []string{"-bogus"}); code != 2 {
		t.Fatalf("exit %d, want 2", code)
	}
}
