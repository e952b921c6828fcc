package graph

import "sync"

// Scale selects dataset sizing. The paper's real datasets (Table II) are
// 132 MB–7.7 GB; simulating those end-to-end is not feasible in a unit-test
// budget, so each dataset has a ScaleSmall stand-in shrunk ~1/256 with
// matched density and skew (cache capacities are shrunk by the same factor
// in the default simulator config, preserving Table II's size-to-LLC
// ratios). ScaleTiny is for unit tests.
type Scale int

// Dataset scales.
const (
	// ScaleTiny builds sub-thousand-vertex graphs for unit tests.
	ScaleTiny Scale = iota
	// ScaleSmall builds the benchmark stand-ins (~10⁵–10⁶ edges).
	ScaleSmall
)

// Dataset names the five graph inputs of Table II.
type Dataset struct {
	// Name is the short name used in workload labels (po, lj, or, sk, wb).
	Name string
	// FullName is the real dataset being stood in for.
	FullName string
	build    func(Scale) *Graph
}

var datasets = []Dataset{
	{
		Name: "po", FullName: "pokec",
		build: func(s Scale) *Graph {
			if s == ScaleTiny {
				return RMAT(8, 8, 11)
			}
			return RMAT(13, 15, 11)
		},
	},
	{
		Name: "lj", FullName: "livejournal",
		build: func(s Scale) *Graph {
			if s == ScaleTiny {
				return RMAT(9, 7, 22)
			}
			return RMAT(14, 14, 22)
		},
	},
	{
		Name: "or", FullName: "orkut",
		build: func(s Scale) *Graph {
			if s == ScaleTiny {
				return RMAT(8, 16, 33)
			}
			return RMAT(13, 38, 33)
		},
	},
	{
		Name: "sk", FullName: "sk-2005",
		build: func(s Scale) *Graph {
			if s == ScaleTiny {
				return WebLike(512, 4096, 32, 44)
			}
			return WebLike(16384, 620000, 64, 44)
		},
	},
	{
		Name: "wb", FullName: "webbase-2001",
		build: func(s Scale) *Graph {
			if s == ScaleTiny {
				return WebLike(768, 3072, 48, 55)
			}
			return WebLike(32768, 280000, 96, 55)
		},
	},
}

// DatasetNames returns the five short names in Table II order.
func DatasetNames() []string {
	out := make([]string, len(datasets))
	for i, d := range datasets {
		out[i] = d.Name
	}
	return out
}

type cacheKey struct {
	name    string
	scale   Scale
	variant string
}

// cacheEntry memoizes one dataset variant. The per-entry Once gives
// loadVariant singleflight semantics: under concurrent simulations (the
// parallel experiment runner) each variant is built exactly once and every
// caller receives the same *Graph, so runs can never observe two distinct
// copies of "the same" immutable dataset.
type cacheEntry struct {
	once sync.Once
	g    *Graph
}

var (
	cacheMu sync.Mutex
	cache   = map[cacheKey]*cacheEntry{}
)

// Load returns the named dataset at the given scale. Graphs are memoized;
// callers must treat them as immutable. Every other variant derives from
// this base graph and shares whichever of its arrays it does not rebuild.
func Load(name string, scale Scale) *Graph {
	return loadVariant(name, scale, "dir", func() *Graph {
		return lookup(name).build(scale)
	})
}

// LoadUndirected returns the symmetrized dataset (BFS/CC/BC inputs).
func LoadUndirected(name string, scale Scale) *Graph {
	return loadVariant(name, scale, "undir", func() *Graph {
		return Load(name, scale).Undirected()
	})
}

// LoadWeighted returns the symmetrized dataset with deterministic edge
// weights in [1, 64] (SSSP input). It shares LoadUndirected's CSR arrays.
func LoadWeighted(name string, scale Scale) *Graph {
	return loadVariant(name, scale, "weighted", func() *Graph {
		return weighted(LoadUndirected(name, scale))
	})
}

// weighted returns u's CSR arrays with SSSP's edge weights added.
func weighted(u *Graph) *Graph {
	w := &Graph{NumNodes: u.NumNodes, OffsetList: u.OffsetList, EdgeList: u.EdgeList}
	w.AddWeights(77, 64)
	return w
}

// LoadWithCSC returns the directed dataset with its transpose built
// (PageRank input: CSC for pull, CSR out-degrees for contributions). It
// shares Load's CSR arrays.
func LoadWithCSC(name string, scale Scale) *Graph {
	return loadVariant(name, scale, "csc", func() *Graph {
		return withCSC(Load(name, scale))
	})
}

// withCSC returns g's CSR arrays with the transpose built.
func withCSC(g *Graph) *Graph {
	c := &Graph{NumNodes: g.NumNodes, OffsetList: g.OffsetList, EdgeList: g.EdgeList}
	c.BuildCSC()
	return c
}

// LoadHubSorted returns the HubSort-reordered variant of the base loader's
// output ("undir", "weighted", or "csc"; anything else reorders Load's
// graph); Fig. 18 inputs. Relabel rebuilds the CSC of the "csc" base.
func LoadHubSorted(name string, scale Scale, base string) *Graph {
	return loadVariant(name, scale, "hub-"+base, func() *Graph {
		switch base {
		case "undir":
			return HubSort(LoadUndirected(name, scale))
		case "weighted":
			return HubSort(LoadWeighted(name, scale))
		case "csc":
			return HubSort(LoadWithCSC(name, scale))
		default:
			return HubSort(Load(name, scale))
		}
	})
}

// lookup returns the named entry of the dataset table, or nil.
func lookup(name string) *Dataset {
	for i := range datasets {
		if datasets[i].Name == name {
			return &datasets[i]
		}
	}
	return nil
}

// loadVariant returns the memoized variant, building it with build on
// first use. Callers outside this package validate names against
// DatasetNames, so an unknown name is a programmer error: it panics
// before a cache entry is made for it.
func loadVariant(name string, scale Scale, variant string, build func() *Graph) *Graph {
	if lookup(name) == nil {
		panic("graph: unknown dataset " + name)
	}
	key := cacheKey{name, scale, variant}
	cacheMu.Lock()
	e, ok := cache[key]
	if !ok {
		e = &cacheEntry{}
		cache[key] = e
	}
	cacheMu.Unlock()

	// Build outside the map lock: variant builders load their base
	// variant, which has its own entry and Once. The entry's Once
	// serializes concurrent loaders of the same variant without blocking
	// loads of other variants.
	e.once.Do(func() { e.g = build() })
	return e.g
}
