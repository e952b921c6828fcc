package main

import (
	"bytes"
	"fmt"
	"os/exec"
	"strings"
	"time"
)

// hostShares buckets the flat samples of one or more CPU profiles
// (merged) by package into the host_share.<pkg> metrics (percent of all
// samples; they sum to 100). It reads `go tool pprof -top` text, so it
// needs only the toolchain the benchmark was built with.
func hostShares(profiles ...string) (map[string]float64, error) {
	args := append([]string{"tool", "pprof", "-top", "-nodecount=1000000", "-nodefraction=0"}, profiles...)
	cmd := exec.Command("go", args...)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof: %w: %s", err, stderr.String())
	}
	flat := map[string]float64{}
	var total float64
	inTable := false
	for _, line := range strings.Split(string(out), "\n") {
		f := strings.Fields(line)
		if !inTable {
			inTable = len(f) >= 2 && f[0] == "flat" && f[1] == "flat%"
			continue
		}
		if len(f) < 6 {
			continue
		}
		d, err := time.ParseDuration(f[0])
		if err != nil {
			return nil, fmt.Errorf("pprof -top line %q: %w", line, err)
		}
		flat[shareBucket(f[5])] += d.Seconds()
		total += d.Seconds()
	}
	if total == 0 {
		return nil, fmt.Errorf("CPU profiles %v hold no samples", profiles)
	}
	m := map[string]float64{"host_share.other": 0}
	for _, b := range hostShareBuckets {
		m["host_share."+b] = 0
	}
	for b, v := range flat {
		m["host_share."+b] = 100 * v / total
	}
	return m, nil
}

// shareBucket maps a profiled function name to its host_share bucket:
// the repository package under internal/ (sub-packages fold into their
// parent, so exp/farm counts as exp), "syscall" for the system-call
// entry points, "runtime" for the rest of the Go runtime, and "other"
// for everything else.
func shareBucket(fn string) string {
	pkg, _, _ := strings.Cut(fn, "[") // type arguments may name other packages
	slash := strings.LastIndex(pkg, "/")
	if dot := strings.Index(pkg[slash+1:], "."); dot >= 0 {
		pkg = pkg[:slash+1+dot]
	}
	switch {
	case pkg == "syscall", pkg == "internal/runtime/syscall":
		return "syscall"
	case pkg == "runtime", strings.HasPrefix(pkg, "runtime/"), strings.HasPrefix(pkg, "internal/runtime/"):
		return "runtime"
	case strings.HasPrefix(pkg, "prodigy/internal/"):
		name, _, _ := strings.Cut(strings.TrimPrefix(pkg, "prodigy/internal/"), "/")
		for _, b := range hostShareBuckets {
			if b == name {
				return b
			}
		}
	}
	return "other"
}
