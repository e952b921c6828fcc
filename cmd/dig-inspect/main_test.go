package main

import (
	"bytes"
	"strings"
	"testing"

	"prodigy/internal/compiler/frontend"
	"prodigy/internal/dig"
	"prodigy/internal/workloads"
)

// TestEveryKernelExitsZero runs dig-inspect on each kernel: the eight
// drift-free kernels match exactly, bc's registration is the allowed
// subset of its derived DIG.
func TestEveryKernelExitsZero(t *testing.T) {
	for _, algo := range workloads.AllAlgos {
		var stdout, stderr bytes.Buffer
		if code := run(&stdout, &stderr, []string{"-algo", algo}); code != 0 {
			t.Errorf("%s: exit %d, want 0; stderr: %s", algo, code, stderr.String())
			continue
		}
		want := "MATCH:"
		if algo == "bc" {
			want = "SUBSET:"
		}
		if !strings.Contains(stdout.String(), want) {
			t.Errorf("%s: output has no %q verdict:\n%s", algo, want, stdout.String())
		}
	}
}

func TestUnknownKernelExitsOne(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run(&stdout, &stderr, []string{"-algo", "nope"}); code != 1 {
		t.Fatalf("exit %d, want 1", code)
	}
	if !strings.Contains(stderr.String(), `"nope"`) {
		t.Errorf("stderr %q does not name the unknown kernel", stderr.String())
	}
}

func TestCheckFlagRejected(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run(&stdout, &stderr, []string{"-check", "-algo", "bc"}); code != 2 {
		t.Fatalf("exit %d, want 2 for an unknown flag", code)
	}
}

// TestVerdictRejectsNonSubset checks that a dig-drift allowance covers
// only a registration the derived DIG contains, and nothing for a kernel
// without one.
func TestVerdictRejectsNonSubset(t *testing.T) {
	b := dig.NewBuilder()
	b.RegisterNode("a", 0x1000, 16, 4, 0)
	b.RegisterNode("b", 0x2000, 16, 4, 1)
	b.RegisterNode("c", 0x3000, 16, 4, 2)
	b.RegisterTravEdge(0x1000, 0x2000, dig.SingleValued)
	b.RegisterTrigEdge(0x1000, dig.TriggerConfig{})
	small, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	b.RegisterTravEdge(0x2000, 0x3000, dig.SingleValued)
	large, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}

	allowed := &frontend.Kernel{AllowedDrift: true, AllowReason: "test"}
	if _, err := verdict(allowed, small, large); err != nil {
		t.Errorf("allowed subset rejected: %v", err)
	}
	if _, err := verdict(allowed, large, small); err == nil {
		t.Error("allowed kernel accepted a registration the derived DIG lacks")
	}
	if _, err := verdict(&frontend.Kernel{}, small, large); err == nil {
		t.Error("kernel without an allowance accepted a strict subset")
	}
	if _, err := verdict(&frontend.Kernel{}, large, large); err != nil {
		t.Errorf("equal DIGs rejected: %v", err)
	}
}
