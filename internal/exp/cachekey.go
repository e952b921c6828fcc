package exp

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"

	"prodigy/internal/cache"
	"prodigy/internal/cpu"
	"prodigy/internal/dram"
	"prodigy/internal/graph"
	"prodigy/internal/tlb"
)

// This file derives the persistent-result-cache key used by the sweep
// service (internal/exp/farm, cmd/prodigy-serve): a canonical hash over
// every configuration input that can influence one grid cell's simulated
// result. Two harnesses that would assemble byte-identical machines for
// a cell derive equal keys — defaults are resolved before hashing, so an
// explicit Cores:8 and the zero-value default hash the same — and any
// change that could alter simulated cycles or prefetch statistics
// changes the key, so a cached replay is always byte-identical to a
// fresh simulation of the same configuration.

// cellKeySchema versions the key derivation. Bump it whenever the
// simulator's timing model or the key material below changes shape, so
// stale cached results are never replayed as current ones.
const cellKeySchema = 1

// cellKeyMaterial is the canonical, JSON-marshalable image of one grid
// cell's full configuration. Only plain structs appear here (no maps, no
// function values), so the marshaled bytes are deterministic.
type cellKeyMaterial struct {
	Schema    int          `json:"schema"`
	Algo      string       `json:"algo"`
	Dataset   string       `json:"dataset"`
	Scheme    string       `json:"scheme"`
	Cores     int          `json:"cores"`
	Scale     graph.Scale  `json:"scale"`
	PFHR      int          `json:"pfhr"`
	MaxCycles int64        `json:"max_cycles"`
	MSHRs     int          `json:"mshrs"`
	CPU       cpu.Config   `json:"cpu"`
	Cache     cache.Config `json:"cache"`
	DRAM      dram.Config  `json:"dram"`
	TLB       tlb.Config   `json:"tlb"`
}

// CellKey returns the canonical persistent-cache key for one
// default-knob grid cell under this harness configuration: the SHA-256
// hex digest of the cell's resolved configuration. The sweep service
// keys its durable result store on it, so restarted servers and repeated
// CI sweeps recognize already-simulated cells across processes.
func (h *Harness) CellKey(algo, dataset string, scheme Scheme) (string, error) {
	if _, err := ParseScheme(string(scheme)); err != nil {
		return "", err
	}
	mc := h.machineOf(runVariant{})
	m := cellKeyMaterial{
		Schema:    cellKeySchema,
		Algo:      algo,
		Dataset:   dataset,
		Scheme:    string(scheme),
		Cores:     mc.cores,
		Scale:     h.Cfg.Scale,
		PFHR:      mc.pfhr,
		MaxCycles: h.Cfg.MaxCycles,
		MSHRs:     h.mshrOverride,
		CPU:       cpu.DefaultConfig(),
		Cache:     mc.cache,
		DRAM:      dram.Default(),
		TLB:       tlb.Default(),
	}
	b, err := json.Marshal(m)
	if err != nil {
		return "", fmt.Errorf("exp: cell key for %s-%s/%s: %w", algo, dataset, scheme, err)
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:]), nil
}

// Schemes lists every valid prefetching scheme in paper order.
func Schemes() []Scheme {
	return []Scheme{SchemeNone, SchemeStride, SchemeGHB, SchemeIMP,
		SchemeAJ, SchemeDroplet, SchemeSoftware, SchemeProdigy}
}

// ParseScheme validates a scheme name arriving from external input (CLI
// flags, sweep-service requests).
func ParseScheme(s string) (Scheme, error) {
	for _, k := range Schemes() {
		if string(k) == s {
			return k, nil
		}
	}
	return "", fmt.Errorf("exp: unknown scheme %q (want one of %v)", s, Schemes())
}
