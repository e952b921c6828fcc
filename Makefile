# Tier-1 verification: everything CI (and a reviewer) needs to trust a
# change. `make check` is the bar every commit must pass.

GO ?= go

.PHONY: check build vet lint lint-json fmt test race fuzz bench bench-json quick-gate stat-smoke memlat-smoke serve-smoke tables trace-demo

check: build vet lint race stat-smoke memlat-smoke serve-smoke quick-gate

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# Repo-specific static analysis: simulator invariants (determinism,
# copylock, errcheck, the hot-path allocation contract) plus the
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
# (trace epoch handoff, dataset cache, run memoization) fail loudly.
race:
	$(GO) test -race ./...

# Fuzz for 10 s each: the farm's inputs from outside (the sweep journal
# loader and the sweep spec's decoding and expansion), the DRAM
# controller against its retained slice-queue reference, the
# fingerprinted cache bank against its retained filter-and-scan
# reference, and cache/TLB geometry validation. Not part of `make
# check`; `go test ./...` already replays the seed corpora
# (internal/exp/farm/testdata/fuzz, internal/dram/testdata/fuzz,
# internal/cache/testdata/fuzz).
fuzz:
	$(GO) test ./internal/exp/farm -run '^$$' -fuzz '^FuzzJournalLoad$$' -fuzztime 10s
	$(GO) test ./internal/exp/farm -run '^$$' -fuzz '^FuzzSpecCells$$' -fuzztime 10s
	$(GO) test ./internal/dram -run '^$$' -fuzz '^FuzzControllerVsRef$$' -fuzztime 10s
	$(GO) test ./internal/cache -run '^$$' -fuzz '^FuzzBankVsRef$$' -fuzztime 10s
	$(GO) test ./internal/cache -run '^$$' -fuzz '^FuzzCacheGeometry$$' -fuzztime 10s

bench:
	$(GO) test -bench=. -benchmem

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

# Smoke test for the prodigy-stat regression gate: a plain diff of the
# committed fixtures must pass, and a tight -fail-on threshold must fail
# (exit 1), proving the gate actually bites.
stat-smoke:
	@$(GO) run ./cmd/prodigy-stat diff \
		cmd/prodigy-stat/testdata/base.jsonl cmd/prodigy-stat/testdata/new.jsonl > /dev/null
	@if $(GO) run ./cmd/prodigy-stat diff -fail-on accuracy=1 \
		cmd/prodigy-stat/testdata/base.jsonl cmd/prodigy-stat/testdata/new.jsonl > /dev/null 2>&1; then \
		echo "stat-smoke: -fail-on accuracy=1 should have failed"; exit 1; \
	else \
		echo "stat-smoke: ok (plain diff passes, threshold gate bites)"; \
	fi

# Sweep-service smoke (part of `make check`): boot prodigy-serve on a
# loopback port with a temporary cache, POST a quick sweep and assert the
# streamed NDJSON, then restart the server on the same cache and assert
# the re-POSTed sweep replays every cell byte-identically without
# simulating (docs/SERVING.md).
serve-smoke:
	@$(GO) run ./cmd/prodigy-serve -smoke

# Latency-calibration smoke (part of `make check`): run the memlat
# pointer-chase sweep on the Table-I machine and assert every plateau —
# L1/L2/L3 hit latencies, L3+DRAM, and TLB walk+L1 — lands exactly on
# the configured latency (EXPERIMENTS.md §Latency calibration).
memlat-smoke:
	@$(GO) run ./cmd/prodigy-sim -memlat -memlat-out memlat-smoke.jsonl > /dev/null
	@$(GO) run ./cmd/prodigy-stat hist -assert memlat-smoke.jsonl > /dev/null
	@rm -f memlat-smoke.jsonl
	@echo "memlat-smoke: ok (all plateaus on the configured latencies)"

# Regenerate every paper table/figure at paper scale (slow).
tables:
	$(GO) run ./cmd/prodigy-bench

# Produce a small BFS timeline + interval metrics to inspect in
# chrome://tracing or https://ui.perfetto.dev (docs/OBSERVABILITY.md).
trace-demo:
	$(GO) run ./cmd/prodigy-sim -tiny -algo bfs -dataset po -scheme prodigy \
		-cores 2 -trace trace-demo.json -metrics trace-demo.jsonl
	@echo "wrote trace-demo.json (open in chrome://tracing) and trace-demo.jsonl"
