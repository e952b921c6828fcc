package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestMain lets a test run the command itself: with PRODIGY_BENCH_MAIN
// set, the test binary is prodigy-bench, reading its arguments from
// os.Args.
func TestMain(m *testing.M) {
	if os.Getenv("PRODIGY_BENCH_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// bench runs prodigy-bench with args and returns its stdout, stderr and
// exit code.
func bench(t *testing.T, args ...string) (stdout, stderr string, code int) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "PRODIGY_BENCH_MAIN=1")
	var out, errb bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errb
	err := cmd.Run()
	var exit *exec.ExitError
	switch {
	case err == nil:
	case errors.As(err, &exit):
		code = exit.ExitCode()
	default:
		t.Fatal(err)
	}
	return out.String(), errb.String(), code
}

// TestUnknownExperimentFailsFirst checks a misspelt experiment name
// fails the command before any experiment runs or any output file is
// opened, not after the experiments named ahead of it have run.
func TestUnknownExperimentFailsFirst(t *testing.T) {
	log := filepath.Join(t.TempDir(), "runs.jsonl")
	stdout, stderr, code := bench(t, "-quick", "-progress", "0", "-json", log, "fig2", "fgi2")
	if code == 0 {
		t.Fatal("unknown experiment exited 0")
	}
	if stdout != "" {
		t.Errorf("ran experiments before rejecting the unknown name:\n%s", stdout)
	}
	if !strings.Contains(stderr, `"fgi2"`) || strings.Contains(stderr, `"fig2"`) {
		t.Errorf("stderr %q should name the unknown experiment only", stderr)
	}
	if _, err := os.Stat(log); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("JSON log opened before the names were checked (stat: %v)", err)
	}
}

// TestNamedExperimentRuns checks a known name runs just that experiment.
func TestNamedExperimentRuns(t *testing.T) {
	stdout, stderr, code := bench(t, "-quick", "-progress", "0", "table2")
	if code != 0 {
		t.Fatalf("exit %d: %s", code, stderr)
	}
	if !strings.HasPrefix(stdout, "== Table II:") || !strings.Contains(stdout, "(table2 took ") ||
		strings.Count(stdout, "== ") != 1 {
		t.Errorf("output is not exactly the Table II experiment:\n%s", stdout)
	}
}
