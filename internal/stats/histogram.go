package stats

import "math/bits"

// Histogram bucket layout: per-access latencies up to histExactMax-1
// cycles are counted in exact bins (every Table-I plateau — L1 through
// DRAM-plus-walk — lands well below this), and anything larger falls
// into power-of-two buckets. The arrays are fixed-size members so the
// record path touches no heap at all.
const (
	// histExactMax is the first latency that is no longer counted
	// exactly. 512 covers every cumulative hit latency the default and
	// scaled configs can produce (L3 + DRAM + walk ≈ 170) with headroom
	// for queueing tails.
	histExactMax = 512
	// histPow2Bins covers latencies in [histExactMax, 2^(9+histPow2Bins));
	// the last bucket is open-ended.
	histPow2Bins = 24
)

// Histogram is a fixed-bucket latency histogram: exact bins for
// latencies in [0, histExactMax) and power-of-two buckets above.
// Record is allocation-free, so a Histogram can sit on the simulator's
// demand path (every obs.Recorder keeps one of demand latencies) without
// perturbing the hot-path allocation contract. The zero value is ready
// to use.
type Histogram struct {
	exact [histExactMax]uint64
	pow2  [histPow2Bins]uint64
	total uint64
	sum   uint64
	max   int64
}

// Record counts one latency sample. Negative samples clamp to zero.
func (h *Histogram) Record(lat int64) {
	if lat < 0 {
		lat = 0
	}
	if lat < histExactMax {
		h.exact[lat]++
	} else {
		// bits.Len64 of histExactMax..2*histExactMax-1 is 10, so the
		// first pow2 bucket is [512, 1024).
		idx := bits.Len64(uint64(lat)) - 10
		if idx >= histPow2Bins {
			idx = histPow2Bins - 1
		}
		h.pow2[idx]++
	}
	h.total++
	h.sum += uint64(lat)
	if lat > h.max {
		h.max = lat
	}
}

// Total returns the number of recorded samples.
func (h *Histogram) Total() uint64 { return h.total }

// Sum returns the sum of all recorded samples (the Prometheus
// histogram _sum series in internal/telemetry).
func (h *Histogram) Sum() uint64 { return h.sum }

// Max returns the largest recorded sample (0 when empty).
func (h *Histogram) Max() int64 { return h.max }

// Mean returns the arithmetic mean of all samples (0 when empty).
func (h *Histogram) Mean() float64 {
	if h.total == 0 {
		return 0
	}
	return float64(h.sum) / float64(h.total)
}

// Mode returns the representative latency of the most populated bucket:
// the exact value for low bins, the bucket's lower bound for power-of-
// two buckets. Ties resolve to the lowest latency. Empty histograms
// return 0.
func (h *Histogram) Mode() int64 {
	var best uint64
	var mode int64
	for v := 0; v < histExactMax; v++ {
		if h.exact[v] > best {
			best = h.exact[v]
			mode = int64(v)
		}
	}
	for i := 0; i < histPow2Bins; i++ {
		if h.pow2[i] > best {
			best = h.pow2[i]
			mode = int64(histExactMax) << uint(i)
		}
	}
	return mode
}

// Percentile returns the smallest bucket-representative latency at or
// below which at least p (in [0,1]) of the samples fall. For exact bins
// this is the exact value; for power-of-two buckets, the upper bound.
func (h *Histogram) Percentile(p float64) int64 {
	if h.total == 0 {
		return 0
	}
	if p < 0 {
		p = 0
	}
	if p > 1 {
		p = 1
	}
	need := uint64(p * float64(h.total))
	if need == 0 {
		need = 1
	}
	var cum uint64
	for v := 0; v < histExactMax; v++ {
		cum += h.exact[v]
		if cum >= need {
			return int64(v)
		}
	}
	for i := 0; i < histPow2Bins; i++ {
		cum += h.pow2[i]
		if cum >= need {
			return (int64(histExactMax) << uint(i+1)) - 1
		}
	}
	return h.max
}

// Add merges other into h bucket-by-bucket (the parallel-sweep reduce).
func (h *Histogram) Add(other *Histogram) {
	for v := range h.exact {
		h.exact[v] += other.exact[v]
	}
	for i := range h.pow2 {
		h.pow2[i] += other.pow2[i]
	}
	h.total += other.total
	h.sum += other.sum
	if other.max > h.max {
		h.max = other.max
	}
}

// HistBucket is one non-empty histogram bucket: samples in [Lo, Hi]
// inclusive. Exact bins have Lo == Hi.
type HistBucket struct {
	Lo    int64  `json:"lo"`
	Hi    int64  `json:"hi"`
	Count uint64 `json:"count"`
}

// Buckets returns the non-empty buckets in ascending latency order.
// This allocates and is meant for post-run reporting, not the record
// path.
func (h *Histogram) Buckets() []HistBucket {
	var out []HistBucket
	for v := 0; v < histExactMax; v++ {
		if h.exact[v] != 0 {
			out = append(out, HistBucket{Lo: int64(v), Hi: int64(v), Count: h.exact[v]})
		}
	}
	for i := 0; i < histPow2Bins; i++ {
		if h.pow2[i] != 0 {
			lo := int64(histExactMax) << uint(i)
			out = append(out, HistBucket{Lo: lo, Hi: 2*lo - 1, Count: h.pow2[i]})
		}
	}
	return out
}
