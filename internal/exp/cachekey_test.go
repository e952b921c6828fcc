package exp

import (
	"testing"

	"prodigy/internal/graph"
)

// TestCellKeyPinned pins the hex CellKey of two cells under the quick
// and default configurations. The sweep service's durable stores are
// keyed on these digests, so a refactor of how a cell's machine is
// resolved must not move a single key byte. It also checks that every
// configuration input that can change a result changes the key, and
// that a zero core count hashes like the explicit default it resolves
// to.
func TestCellKeyPinned(t *testing.T) {
	pinned := []struct {
		cfg  string
		cell Cell
		key  string
	}{
		{"quick", Cell{"bfs", "po", SchemeProdigy}, "5a6d50bcd3f2ef6cbbf5a36dac5f332e347cc17fa80efa170f98424ebee6ec43"},
		{"quick", Cell{"spmv", "", SchemeNone}, "ce118f546d9086c29229180b0440ec8328779c612df6b609d86bbd1e6c348b94"},
		{"default", Cell{"bfs", "po", SchemeProdigy}, "46960abd6bfbd779f9559c505236a932ef3c9fc03807a60bc6c10330aac3970b"},
		{"default", Cell{"spmv", "", SchemeNone}, "33237cf579ecab08709b0098c1f50c8d59f4ca1bd4843f32970acdec9a060b70"},
	}
	cfgs := map[string]Config{"quick": Quick(), "default": Default()}
	key := func(h *Harness, c Cell) string {
		t.Helper()
		k, err := h.CellKey(c.Algo, c.Dataset, c.Scheme)
		if err != nil {
			t.Fatal(err)
		}
		return k
	}
	for _, p := range pinned {
		if got := key(New(cfgs[p.cfg]), p.cell); got != p.key {
			t.Errorf("%s %s: key %s, want %s", p.cfg, p.cell, got, p.key)
		}
	}

	cell := Cell{"bfs", "po", SchemeProdigy}
	base := key(New(Quick()), cell)
	otherCache := *Quick().CacheOverride
	otherCache.L3Size *= 2
	changes := map[string]func(*Harness){
		"Cores":         func(h *Harness) { h.Cfg.Cores = 4 },
		"Scale":         func(h *Harness) { h.Cfg.Scale = graph.ScaleSmall },
		"PFHREntries":   func(h *Harness) { h.Cfg.PFHREntries = 8 },
		"MaxCycles":     func(h *Harness) { h.Cfg.MaxCycles = 1e6 },
		"CacheOverride": func(h *Harness) { h.Cfg.CacheOverride = &otherCache },
		"mshrOverride":  func(h *Harness) { h.mshrOverride = 4 },
	}
	for name, change := range changes {
		h := New(Quick())
		change(h)
		if key(h, cell) == base {
			t.Errorf("changing %s left the key unchanged", name)
		}
	}

	zero, eight := Default(), Default()
	zero.Cores, eight.Cores = 0, 8
	if key(New(zero), cell) != key(New(eight), cell) {
		t.Error("Cores 0 and its resolved default 8 hash differently")
	}
}
