package graph

// Uniform generates an Erdős–Rényi style directed graph with n vertices and
// m edges drawn uniformly at random (GAP's urand analogue).
func Uniform(n, m int, seed uint64) *Graph {
	r := NewRand(seed)
	src := make([]uint32, m)
	dst := make([]uint32, m)
	for i := 0; i < m; i++ {
		src[i] = uint32(r.Intn(n))
		dst[i] = uint32(r.Intn(n))
	}
	return FromEdges(n, src, dst)
}

// RMAT generates a power-law graph with the recursive-matrix method
// (Graph500/kron analogue). scale is log2 of the vertex count; edgeFactor
// is edges per vertex. Probabilities follow the standard (a,b,c,d) =
// (0.57, 0.19, 0.19, 0.05) parameterization.
func RMAT(scale, edgeFactor int, seed uint64) *Graph {
	n := 1 << scale
	m := n * edgeFactor
	r := NewRand(seed)
	// Each draw p = Float64() = y/2^53 with y = Next()>>11 picks a quadrant
	// by comparing p with float64 bounds q in [0.5, 1). There q·2^53 is an
	// exact integer, so p < q exactly when y < q·2^53: compare integers.
	const a, b, c = 0.57, 0.19, 0.19
	ta, tb, tc := unitBound(a), unitBound(a+b), unitBound(a+b+c)
	src := make([]uint32, m)
	dst := make([]uint32, m)
	for i := 0; i < m; i++ {
		var u, v uint32
		for bit := scale - 1; bit >= 0; bit-- {
			y := r.Next() >> 11
			switch {
			case y < ta:
				// upper-left: neither bit set
			case y < tb:
				v |= 1 << uint(bit)
			case y < tc:
				u |= 1 << uint(bit)
			default:
				u |= 1 << uint(bit)
				v |= 1 << uint(bit)
			}
		}
		src[i] = u
		dst[i] = v
	}
	return FromEdges(n, src, dst)
}

// unitBound returns q·2^53 for a probability bound q in [0.5, 1), the
// integer that Rand.Float64's 53-bit numerator is compared against.
func unitBound(q float64) uint64 { return uint64(q * (1 << 53)) }

// WebLike generates a skewed host-clustered graph approximating web crawls
// (sk-2005 / webbase-2001 stand-in): vertices are grouped into "hosts";
// most edges stay within a host (high locality runs in the edge list) while
// a power-law minority cross hosts toward hub pages.
func WebLike(n, m, hostSize int, seed uint64) *Graph {
	r := NewRand(seed)
	src := make([]uint32, m)
	dst := make([]uint32, m)
	nhubs := n / 64
	if nhubs < 1 {
		nhubs = 1
	}
	for i := 0; i < m; i++ {
		u := uint32(r.Intn(n))
		src[i] = u
		if r.Float64() < 0.8 {
			// Intra-host edge.
			host := int(u) / hostSize * hostSize
			span := hostSize
			if host+span > n {
				span = n - host
			}
			dst[i] = uint32(host + r.Intn(span))
		} else {
			// Cross-host edge to a hub (Zipf-ish over the hub set).
			rank := int(float64(nhubs) * r.Float64() * r.Float64())
			dst[i] = uint32(rank * 61 % n)
		}
	}
	return FromEdges(n, src, dst)
}
