package stats

import "testing"

func TestHistogramExactBins(t *testing.T) {
	var h Histogram
	for i := 0; i < 10; i++ {
		h.Record(2)
	}
	h.Record(150)
	h.Record(150)
	h.Record(150)
	if got := h.Total(); got != 13 {
		t.Fatalf("Total = %d, want 13", got)
	}
	if got := h.Mode(); got != 2 {
		t.Fatalf("Mode = %d, want 2", got)
	}
	if got := h.Max(); got != 150 {
		t.Fatalf("Max = %d, want 150", got)
	}
	want := (10*2.0 + 3*150.0) / 13.0
	if got := h.Mean(); got != want {
		t.Fatalf("Mean = %v, want %v", got, want)
	}
}

func TestHistogramPow2Buckets(t *testing.T) {
	var h Histogram
	// 600 and 1000 share the [512,1023] bucket; 5000 lands in [4096,8191].
	h.Record(600)
	h.Record(1000)
	h.Record(5000)
	bk := h.Buckets()
	if len(bk) != 2 {
		t.Fatalf("Buckets = %+v, want 2 buckets", bk)
	}
	if bk[0].Lo != 512 || bk[0].Hi != 1023 || bk[0].Count != 2 {
		t.Fatalf("bucket 0 = %+v, want [512,1023] count 2", bk[0])
	}
	if bk[1].Lo != 4096 || bk[1].Hi != 8191 || bk[1].Count != 1 {
		t.Fatalf("bucket 1 = %+v, want [4096,8191] count 1", bk[1])
	}
	if got := h.Mode(); got != 512 {
		t.Fatalf("Mode = %d, want 512 (lower bound of modal pow2 bucket)", got)
	}
}

func TestHistogramModeTieBreaksLow(t *testing.T) {
	var h Histogram
	h.Record(30)
	h.Record(150)
	if got := h.Mode(); got != 30 {
		t.Fatalf("Mode = %d, want 30 (ties resolve low)", got)
	}
}

func TestHistogramNegativeClamps(t *testing.T) {
	var h Histogram
	h.Record(-5)
	if got := h.Mode(); got != 0 {
		t.Fatalf("Mode = %d, want 0", got)
	}
	if got := h.Total(); got != 1 {
		t.Fatalf("Total = %d, want 1", got)
	}
}

func TestHistogramPercentile(t *testing.T) {
	var h Histogram
	for i := 0; i < 90; i++ {
		h.Record(2)
	}
	for i := 0; i < 10; i++ {
		h.Record(150)
	}
	if got := h.Percentile(0.5); got != 2 {
		t.Fatalf("P50 = %d, want 2", got)
	}
	if got := h.Percentile(0.95); got != 150 {
		t.Fatalf("P95 = %d, want 150", got)
	}
	if got := h.Percentile(1); got != 150 {
		t.Fatalf("P100 = %d, want 150", got)
	}
	var empty Histogram
	if got := empty.Percentile(0.5); got != 0 {
		t.Fatalf("empty P50 = %d, want 0", got)
	}
}

func TestHistogramAdd(t *testing.T) {
	var a, b Histogram
	a.Record(2)
	a.Record(600)
	b.Record(2)
	b.Record(2)
	b.Record(9000)
	a.Add(&b)
	if got := a.Total(); got != 5 {
		t.Fatalf("Total = %d, want 5", got)
	}
	if got := a.Mode(); got != 2 {
		t.Fatalf("Mode = %d, want 2", got)
	}
	if got := a.Max(); got != 9000 {
		t.Fatalf("Max = %d, want 9000", got)
	}
}

func TestHistogramOverflowBucketClamps(t *testing.T) {
	var h Histogram
	h.Record(1 << 62)
	bk := h.Buckets()
	if len(bk) != 1 || bk[0].Count != 1 {
		t.Fatalf("Buckets = %+v, want one sample in the last bucket", bk)
	}
	if bk[0].Lo != int64(histExactMax)<<(histPow2Bins-1) {
		t.Fatalf("last bucket Lo = %d, want %d", bk[0].Lo, int64(histExactMax)<<(histPow2Bins-1))
	}
}

// recordOp is op i of BenchmarkHistogramRecord: one latency sample in
// the exact range.
func recordOp(h *Histogram, i int) { h.Record(int64(i & 1023)) }

// BenchmarkHistogramRecord measures the record path: every obs.Recorder
// records into a Histogram on the demand path, so the path must stay at 0
// allocs/op (TestHistogramRecordAllocFree).
func BenchmarkHistogramRecord(b *testing.B) {
	var h Histogram
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		recordOp(&h, i)
	}
	if h.Total() == 0 {
		b.Fatal("no samples recorded")
	}
}

// TestHistogramRecordAllocFree pins BenchmarkHistogramRecord's 0
// allocs/op.
func TestHistogramRecordAllocFree(t *testing.T) {
	var h Histogram
	i := 0
	if allocs := testing.AllocsPerRun(1, func() {
		for end := i + 4096; i < end; i++ {
			recordOp(&h, i)
		}
	}); allocs != 0 {
		t.Errorf("%v allocations in 4096 records, want 0", allocs)
	}
}
