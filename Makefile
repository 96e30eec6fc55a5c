GO ?= go

.PHONY: all build vet lint test race fmt ci ci-short bench bench-decision figures clean

all: build

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# lint runs athena-lint, the repo's own static-analysis gate: determinism
# (no wall clock / global rand / map-order output in sim-reachable code),
# lane isolation and float-fold order in kernel-handler-reachable code,
# wire-protocol exhaustiveness, lock discipline (including the inferred
# acquisition-order graph), metrics nil-safety, goroutine lifecycle, and
# dropped transport errors. `go run ./cmd/athena-lint -list` describes the
# checks; deliberate exceptions carry //lint:allow <check> <reason>.
lint:
	$(GO) run ./cmd/athena-lint ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

fmt:
	gofmt -w .

# ci is the gate run before every merge: formatting, compile, static
# checks, the full test suite under the race detector, and the aggregate
# coverage floor. ci-short is the inner-loop variant (race suite with
# -short, skipping the long simulation sweeps and the coverage gate).
# Both are the same script so the gates can't drift apart.
ci:
	./ci.sh

ci-short:
	./ci.sh -short

# bench refreshes the committed benchmark baseline: the BenchmarkScheme
# family (end-to-end scheme runs reporting ns/op, resolution and MB), the
# membership control-plane benchmark (flood vs gossip bytes per node per
# interval at n=64), the directory-memory benchmark (entries held per
# node, sharded vs full replica), the simulation-kernel benchmark
# (n=512 synthetic workload at W=1 and W=NumCPU), and the data-plane
# batching benchmark (A11 incast at n=64, coalescing off/on), parsed
# into machine-readable JSON. CI archives the file per commit;
# regressions are judged against the committed baseline.
bench:
	$(GO) test -run '^$$' -bench 'BenchmarkScheme|BenchmarkMembershipControlPlane|BenchmarkDirectoryMemory|BenchmarkSimKernel|BenchmarkBatchedFetch' -benchmem -benchtime 3x . \
		| tee /dev/stderr | $(GO) run ./cmd/benchjson > BENCH_core.json

# bench-decision runs the decision benchmark (decisionbench/, declared in
# BENCHMARK.json) once per workload. Each run's last stdout line is its
# end-to-end metrics JSON; BENCH_SEED and BENCH_SECONDS override the
# defaults.
BENCH_SEED ?= 1
BENCH_SECONDS ?= 20
bench-decision:
	for w in sim-paper sim-fleet tcp-fleet; do \
		bash decisionbench/run.sh --workload $$w --seed $(BENCH_SEED) --seconds $(BENCH_SECONDS) --trace 0 || exit 1; \
	done

# figures reproduces the paper's evaluation tables (quick variants).
figures:
	$(GO) run ./cmd/athena-sim -fig all -quick

clean:
	$(GO) clean ./...
