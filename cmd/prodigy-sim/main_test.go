package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"prodigy/internal/exp"
)

// TestReportProdigyCounters pins the per-core Prodigy counter lines of
// `prodigy-sim -tiny -cores 2 -algo bfs -dataset po -scheme prodigy`,
// as printed when the counters were read from the live prefetchers.
func TestReportProdigyCounters(t *testing.T) {
	cfg := exp.Quick()
	cfg.Cores = 2
	run, err := exp.New(cfg).RunOne("bfs", "po", exp.SchemeProdigy)
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	report(&out, run, cfg)
	var got []string
	for _, line := range strings.Split(out.String(), "\n") {
		if strings.HasPrefix(line, "core ") {
			got = append(got, line)
		}
	}
	want := []string{
		"core 0 prodigy: {Triggers:281 SeqStarted:730 SeqDropped:4 IssuedTrigger:730 IssuedSingle:7270 IssuedRanged:712 LinesTrigger:36 LinesSingle:3844 LinesRanged:894 PFHRFull:279 ResidentSkipped:3734}",
		"core 1 prodigy: {Triggers:142 SeqStarted:324 SeqDropped:0 IssuedTrigger:324 IssuedSingle:3246 IssuedRanged:514 LinesTrigger:24 LinesSingle:1591 LinesRanged:547 PFHRFull:74 ResidentSkipped:1832}",
	}
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Errorf("per-core Prodigy lines:\n got %q\nwant %q", got, want)
	}
}

// TestFailingGridExitsOne checks a grid whose cell fails returns exit
// code 1 through run, after the JSON log it opened is closed.
func TestFailingGridExitsOne(t *testing.T) {
	log := filepath.Join(t.TempDir(), "runs.jsonl")
	var stdout, stderr bytes.Buffer
	code := run(&stdout, &stderr, []string{"-tiny", "-cores", "2", "-algo", "bfs", "-dataset", "po",
		"-scheme", "no-such-scheme", "-json", log})
	if code != 1 {
		t.Fatalf("exit %d, want 1; stderr: %s", code, stderr.String())
	}
	if !strings.Contains(stderr.String(), "no-such-scheme") {
		t.Errorf("stderr %q does not name the failing scheme", stderr.String())
	}
	if _, err := os.Stat(log); err != nil {
		t.Errorf("JSON log: %v", err)
	}
}
