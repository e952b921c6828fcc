# Tier-1 verification: everything CI (and a reviewer) needs to trust a
# change. `make check` is the bar every commit must pass.

GO ?= go

.PHONY: check build vet lint lint-json fmt test race fuzz bench-json quick-gate tables trace-demo

check: build vet lint race quick-gate

build:
	$(GO) build ./...

# go vet covers both modules: the root ./... pattern does not descend
# into perfbench/, which is its own module. Its copylocks check is the
# repository's lock-copy lint (docs/LINT.md).
vet:
	$(GO) vet ./...
	cd perfbench && $(GO) vet ./...

# Repo-specific static analysis: simulator invariants (determinism,
# errcheck, the hot-path allocation contract) plus the
# compiler-pass DIG cross-check of every workload kernel, then the
# compiler-backed //hot:inline and //hot:noescape contract check. See
# docs/LINT.md.
lint: fmt
	$(GO) run ./cmd/prodigy-lint ./...
	$(GO) run ./cmd/prodigy-lint -escape ./...

# Same diagnostics as `make lint`, machine-readable (one JSON array on
# stdout) for editor and CI integration.
lint-json:
	$(GO) run ./cmd/prodigy-lint -json ./...
	$(GO) run ./cmd/prodigy-lint -json -escape ./...

fmt:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt: needs formatting:"; echo "$$out"; exit 1; fi

test:
	$(GO) test ./...

# The experiment runner fans simulations across goroutines; run the whole
# suite under the race detector so regressions in the concurrency story
# (the trace coroutine's strict alternation with the simulator, dataset
# cache, run memoization) fail loudly.
race:
	$(GO) test -race ./...

# Fuzz for 10 s each: the farm's inputs from outside (the sweep journal
# and result cache loaders and the sweep spec's decoding and expansion), the DRAM
# controller against its retained slice-queue reference, the
# fingerprinted cache bank against its retained filter-and-scan
# reference, the cache hierarchy's directory-guided coherence walks
# against the retained every-core walks, cache/TLB geometry
# validation, and the counting-sort graph builders against the retained
# sort-based ones. Not part of `make
# check`; `go test ./...` already replays the seed corpora
# (internal/exp/farm/testdata/fuzz, internal/dram/testdata/fuzz,
# internal/cache/testdata/fuzz).
fuzz:
	$(GO) test ./internal/exp/farm -run '^$$' -fuzz '^FuzzJournalLoad$$' -fuzztime 10s
	$(GO) test ./internal/exp/farm -run '^$$' -fuzz '^FuzzStoreLoad$$' -fuzztime 10s
	$(GO) test ./internal/exp/farm -run '^$$' -fuzz '^FuzzSpecCells$$' -fuzztime 10s
	$(GO) test ./internal/dram -run '^$$' -fuzz '^FuzzControllerVsRef$$' -fuzztime 10s
	$(GO) test ./internal/cache -run '^$$' -fuzz '^FuzzBankVsRef$$' -fuzztime 10s
	$(GO) test ./internal/cache -run '^$$' -fuzz '^FuzzHierarchyVsRef$$' -fuzztime 10s
	$(GO) test ./internal/cache -run '^$$' -fuzz '^FuzzCacheGeometry$$' -fuzztime 10s
	$(GO) test ./internal/graph -run '^$$' -fuzz '^FuzzGraphBuildVsRef$$' -fuzztime 10s

# Hot-path performance gate: run the microbenchmarks, a wall-clock timing
# of `prodigy-bench -quick`, and the quick prefetch-quality sweep; write
# the latest BENCH_<n>.json (highest n, bench-json's -out default) and
# fail if allocs/op on the gated benchmarks (including the memlat
# histogram record path) or Prodigy's accuracy/coverage regress below
# the committed baseline (docs/ARCHITECTURE.md §Performance).
bench-json:
	$(GO) run ./cmd/bench-json

# Wall-clock and memory regression gate (part of `make check`): time
# `prodigy-bench -quick` as many times as the latest committed
# BENCH_<n>.json baseline did and fail if the median wall time, or the
# median peak RSS, exceeds the baseline's median by more than both
# batches' spreads (largest minus smallest run) added together. Catches
# simulator throughput regressions and runs that stay pinned in memory
# without rerunning the full bench-json suite.
quick-gate:
	$(GO) run ./cmd/bench-json -quick-gate

# Regenerate every paper table/figure at paper scale (slow).
tables:
	$(GO) run ./cmd/prodigy-bench

# Produce a small BFS timeline + interval metrics to inspect in
# chrome://tracing or https://ui.perfetto.dev (docs/OBSERVABILITY.md).
trace-demo:
	$(GO) run ./cmd/prodigy-sim -tiny -algo bfs -dataset po -scheme prodigy \
		-cores 2 -trace trace-demo.json -metrics trace-demo.jsonl
	@echo "wrote trace-demo.json (open in chrome://tracing) and trace-demo.jsonl"
