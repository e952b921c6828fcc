# Tier-1 verification: everything CI (and a reviewer) needs to trust a
# change. `make check` is the bar every commit must pass.

GO ?= go

.PHONY: check build vet lint lint-json fmt test race perfbench-test fuzz bench-json quick-gate tables trace-demo

check: build vet lint race perfbench-test quick-gate

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

# The benchmark's self-test (perfbench/ is its own module, outside the
# root ./... pattern): it runs every workload at tiny scale, driving a
# real prodigy-serve binary through a cold fill and byte-checked
# replays, so a response-framing or telemetry break fails here and not
# only in the benchmark.
perfbench-test:
	cd perfbench && $(GO) test ./...

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

# Performance recorder: run the hot-path microbenchmarks and time
# `prodigy-bench -quick`, and write them to the next unused
# BENCH_<n>.json (docs/ARCHITECTURE.md §Performance). It gates nothing:
# each benchmark's 0 allocs/op contract is a test beside it in `make
# test`.
bench-json:
	$(GO) run ./cmd/bench-json

# Wall-clock and memory regression gate (part of `make check`): build
# prodigy-bench from the parent commit (HEAD with uncommitted changes,
# else HEAD~) and from the working tree, run `-quick` in twenty pairs of
# parent-change-change-parent (or the reverse) runs, and fail if the
# change is slower, or peaks at a larger resident set, by a one-sided
# signed-rank test over the pairs at p <= 0.01. Runs taken on one host
# moments apart share its load, so the gate holds on a slow host as on a
# fast one.
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
