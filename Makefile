# Developer entry points. CI (.github/workflows/ci.yml) runs the same
# commands; keep the two in sync.

# The benchmark set the CI bench-gate guards against regression. C1
# (access designs), C4 (accounting), C7 (transfer security + pooling),
# C8 (contended access), C14 (VM agent workloads) and C15 (dispatch-path
# name resolution) cover every hot path this repo optimizes.
GATE_BENCH := BenchmarkC1_|BenchmarkC4_|BenchmarkC7_|BenchmarkC8_|BenchmarkC14_|BenchmarkC15_
BENCH_FLAGS := -run '^$$' -benchtime 0.5s -count 3

.PHONY: test race lint bench-gate-run bench-baseline bench-gate bench-compare load load-smoke slo-gate

test:
	go build ./... && go test ./...

race:
	go test -race ./...

# lint runs the full static gate: formatting, go vet, staticcheck when
# the binary is installed (it is optional — the repo's own analyzers do
# the heavy lifting), and the in-tree type-aware analyzer suite
# (cmd/repolint; see docs/ANALYZERS.md). Fails on any unsuppressed
# finding.
lint:
	@unformatted=$$(gofmt -l .); \
	if [ -n "$$unformatted" ]; then \
		echo "gofmt needed:"; echo "$$unformatted"; exit 1; \
	fi
	go vet ./...
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck not installed; skipping (optional)"; \
	fi
	go run ./cmd/repolint .

# bench-gate-run produces one gate-comparable measurement file.
bench-gate-run:
	go test $(BENCH_FLAGS) -bench '$(GATE_BENCH)' . | tee bench_new.txt

# bench-baseline regenerates the committed baseline. Run it on the same
# class of machine the gate compares on (the CI runner for CI gating;
# your workstation for local comparisons) and commit the result.
bench-baseline:
	mkdir -p bench
	go test $(BENCH_FLAGS) -bench '$(GATE_BENCH)' . | tee bench/baseline.txt

# bench-gate compares a fresh run against the committed baseline and
# fails on a >15% geomean regression — the same check CI runs. The
# baseline's `cpu:` line names the machine it was measured on; when it
# differs from this machine's, benchgate prints "machine mismatch" and
# the verdict compares machines as well as code. For a local
# comparison, run `make bench-baseline` on the parent commit first.
bench-gate: bench-gate-run
	go run ./cmd/benchgate -old bench/baseline.txt -new bench_new.txt

# bench-compare compares the working tree with another revision on this
# machine, which stays meaningful when bench/baseline.txt was recorded on
# another machine class: BASE is checked out with `git worktree` into a
# temporary directory, the GATE_BENCH set runs alternately on BASE and
# on the working tree (three rounds, the same BENCH_FLAGS), and
# cmd/benchgate compares bench_base.txt with bench_new.txt at its
# default threshold. Example: make bench-compare BASE=HEAD~1
bench-compare:
	@if [ -z "$(BASE)" ]; then echo "usage: make bench-compare BASE=<rev>" >&2; exit 2; fi
	@set -e; tmp=$$(mktemp -d); \
	trap 'git worktree remove --force "$$tmp/base" >/dev/null 2>&1 || true; rm -rf "$$tmp"' EXIT; \
	git worktree add --detach "$$tmp/base" '$(BASE)' >/dev/null; \
	: > bench_base.txt; : > bench_new.txt; \
	for i in 1 2 3; do \
		echo "round $$i/3: $(BASE)"; \
		(cd "$$tmp/base" && go test $(BENCH_FLAGS) -bench '$(GATE_BENCH)' .) >> bench_base.txt; \
		echo "round $$i/3: working tree"; \
		go test $(BENCH_FLAGS) -bench '$(GATE_BENCH)' . >> bench_new.txt; \
	done; \
	go run ./cmd/benchgate -old bench_base.txt -new bench_new.txt

# load runs the full cluster load scenario suite (C16): in-process
# multi-server clusters, seeded open-loop agent load, scripted faults.
# Writes BENCH_cluster.json + BENCH_cluster.csv.
load:
	go run ./cmd/ajanta-load -scenario all -seed 42 \
		-json BENCH_cluster.json -csv BENCH_cluster.csv

# load-smoke is the CI-sized variant (each scenario's smoke scaling) —
# the same command the cluster-slo CI job runs.
load-smoke:
	go run ./cmd/ajanta-load -scenario all -smoke -seed 42 \
		-json BENCH_cluster.json -csv BENCH_cluster.csv

# slo-gate re-evaluates the measured artifact against every scenario's
# SLO block and fails on any breach (lost agents, latency percentiles,
# throughput floors) — the same check the cluster-slo CI job runs.
slo-gate: load-smoke
	go run ./cmd/slogate -report BENCH_cluster.json
