package exp

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"prodigy/internal/obs"
)

// Pinned prefetch-ledger output of the quick bfs-po Prodigy cell (2
// cores): the record count and the SHA-256 of the JSONL bytes.
const (
	pinnedLedgerRecords = 2572
	pinnedLedgerSHA256  = "a29cb80598b81a06d881c42b0160227139db89cb15702d2071d4a586e3e913c8"
)

// TestLedgerBytesPinned pins the ledger JSONL of one quick Prodigy cell,
// and checks that turning the ledger on leaves the cell's trace and
// metrics output byte-identical.
func TestLedgerBytesPinned(t *testing.T) {
	run := func(withLedger bool) (trace, metrics, ledger []byte) {
		var tb, mb, lb bytes.Buffer
		cfg := goldenCfg(1)
		opts := obs.Options{Interval: 1000, Trace: &tb, Metrics: &mb}
		if withLedger {
			opts.Ledger = &lb
		}
		cfg.Obs = func(string) (*obs.Recorder, func() error, error) { return obs.New(opts), nil, nil }
		if _, err := New(cfg).RunOne("bfs", "po", SchemeProdigy); err != nil {
			t.Fatal(err)
		}
		return tb.Bytes(), mb.Bytes(), lb.Bytes()
	}
	trace, metrics, _ := run(false)
	ltrace, lmetrics, ledger := run(true)
	if !bytes.Equal(trace, ltrace) {
		t.Error("turning the ledger on changed the trace bytes")
	}
	if !bytes.Equal(metrics, lmetrics) {
		t.Error("turning the ledger on changed the metrics bytes")
	}
	sum := sha256.Sum256(ledger)
	records := bytes.Count(ledger, []byte("\n"))
	if records != pinnedLedgerRecords || hex.EncodeToString(sum[:]) != pinnedLedgerSHA256 {
		t.Errorf("ledger = %d records, sha256 %x; pinned %d records, sha256 %s",
			records, sum, pinnedLedgerRecords, pinnedLedgerSHA256)
	}
}
