# Standard entry points; everything is pure Go with no external dependencies.

.PHONY: all build test test-shuffle test-race race cover cover-check test-prop test-chaos test-backend test-incremental perfbench-smoke fuzz-smoke bench bench-json bench-check experiments verify fmt fmt-check vet lint lint-json ci examples

all: build test

build:
	go build ./...

test:
	go test ./...

# Order-shuffled pass (mirrors the CI test matrix's second step): catches
# inter-test coupling that the fixed order hides.
test-shuffle:
	go test -shuffle=on -count=1 ./...

# Tier-1 gate for the concurrency work: the whole suite under the race
# detector, including the 100+-goroutine stress tests.
test-race:
	go test -race ./...

race: test-race

cover:
	go test -cover ./...

# Coverage gate: total statement coverage must not fall below the baseline
# measured when the robustness suites landed. Raise the baseline when
# coverage genuinely improves; never lower it to make a PR pass.
COVER_BASELINE ?= 84.8

cover-check:
	@go test -coverprofile=cover.out ./... > /dev/null
	@total=$$(go tool cover -func=cover.out | awk '/^total:/ { sub("%","",$$3); print $$3 }'); \
	rm -f cover.out; \
	echo "total coverage: $$total% (baseline $(COVER_BASELINE)%)"; \
	awk -v t="$$total" -v b="$(COVER_BASELINE)" 'BEGIN { exit !(t+0 >= b+0) }' || \
		{ echo "coverage $$total% fell below the $(COVER_BASELINE)% baseline" >&2; exit 1; }

# Deep sweep of the property-based differential harness: many random
# database instances per property, engine answers checked against the
# brute-force oracle (see internal/proptest).
test-prop:
	go test -count=1 ./internal/proptest/ -proptest.deep

# Chaos suite under the race detector: fault-injection semantics per
# injection point, workload replays under a 10% injector, partial-answer
# HTTP contract, and the goroutine-leak checks.
test-chaos:
	go test -race -count=1 -run 'Chaos|Leak|Partial|Timeout|Cancel' . ./internal/chaos/ ./internal/core/ ./internal/server/ ./internal/qcache/

# Backend seam under the race detector: the dialect renderer, the sqlite3
# CLI driver, the exporter and the SQLite differential oracle (every dataset
# workload interpretation on both engines). Skips the live halves cleanly
# when no sqlite3 binary is on PATH.
test-backend:
	go test -race -count=1 ./internal/backend/... ./internal/sqlast/render/

# Incremental-commit differential under the race detector: the relation
# delta-builder suite (ExtendFrozen vs full Freeze, index patching vs
# BuildIndex), the core Live incremental-vs-full-vs-direct equivalence, and
# the top-level replay of every dataset workload on an engine built via K
# incremental commits against one full core.Open — byte-identical answers
# required throughout, including under chaos injection mid-query.
test-incremental:
	go test -race -count=1 -run 'Incremental|ExtendFrozen|AppendRows|DictExtend|RemapCache|LiveCommit|LiveIngest|LiveEpoch' . ./internal/relation/ ./internal/core/

# End-to-end benchmark smoke: perfbench/ is a module of its own, so
# `go build ./...` never compiles it. Build it and run one second of each
# workload with its checks on; fail unless every run's last line reports
# correct answers and no failed operation.
PERFBENCH_WORKLOADS = tpch-large-cold acmdl-denorm-http tpch-live

perfbench-smoke:
	@for w in $(PERFBENCH_WORKLOADS); do \
		last=$$(bash perfbench/run.sh --workload $$w --seed 1 --seconds 1 --trace 0 | tail -n 1); \
		case "$$last" in \
		*'"correct":true'*'"failed":0'*) echo "perfbench $$w: ok" ;; \
		*) echo "perfbench $$w: bad result: $$last" >&2; exit 1 ;; \
		esac; \
	done

# Short fuzzing pass over every fuzz target (~6 minutes total); the nightly
# workflow runs this, and `go test ./...` always replays the committed seed
# corpora in testdata/fuzz/.
fuzz-smoke:
	go test -fuzz=FuzzParse -fuzztime=75s ./internal/keyword/
	go test -fuzz=FuzzParse -fuzztime=75s ./internal/sqldb/
	go test -fuzz=FuzzPretty -fuzztime=75s ./internal/sqldb/
	go test -fuzz=FuzzExec -fuzztime=75s ./internal/sqldb/
	go test -fuzz=FuzzRender -fuzztime=75s ./internal/backend/

bench:
	go test -bench=. -benchmem ./...

# Machine-readable record of the executor-kernel, memo and epoch-commit
# benchmarks (BENCH_PR9.json is the committed record for the incremental
# epoch-commit PR: the PR-7 kernel grid plus BenchmarkEpochCommit's N
# existing × M new rows matrix in both incremental and full-refreeze modes;
# BENCH_PR4.json, BENCH_PR6.json and BENCH_PR7.json stay as earlier PRs'
# records; the nightly workflow regenerates the current file as an
# artifact). -cpu 1,4 covers both the single-threaded kernels and the
# shard-parallel scaling; the epoch benches run -cpu 1 with a fixed 20x
# iteration count so the database grows identically run to run.
KERNEL_BENCHES = Kernel|HashJoin3Way|GroupByAggregate|DistinctProjection|EqualityFilter|MemoSharedSubplans
KERNEL_BENCH_RUN = go test -run '^$$' -bench '$(KERNEL_BENCHES)' -benchmem -cpu 1,4 ./internal/sqldb/
EPOCH_BENCH_RUN = go test -run '^$$' -bench 'EpochCommit' -benchmem -benchtime 20x -cpu 1 ./internal/core/

bench-json:
	{ $(KERNEL_BENCH_RUN); $(EPOCH_BENCH_RUN); } | go run ./cmd/benchjson > BENCH_PR9.json
	@echo "wrote BENCH_PR9.json"

# Bench-regression gate: rerun the kernel and epoch-commit benchmarks and
# fail when any rows/s-bearing benchmark falls more than 25% below the
# committed BENCH_PR9.json baseline (or disappears from the run). Because
# the baseline holds both modes of BenchmarkEpochCommit, this gate also
# pins the incremental-vs-full commit speedup: the incremental rows/s
# entries sit an order of magnitude above full's, so losing the delta path
# fails the comparison outright. The fresh run is written to
# BENCH_CURRENT.json for the CI artifact either way.
bench-check:
	{ $(KERNEL_BENCH_RUN); $(EPOCH_BENCH_RUN); } | go run ./cmd/benchjson -compare BENCH_PR9.json -tolerance 0.25 > BENCH_CURRENT.json
	@echo "wrote BENCH_CURRENT.json"

# Regenerate every table and figure of the paper's evaluation.
experiments:
	go run ./cmd/experiments -all

# CI gate: fails when any reproduced shape diverges from the paper.
verify:
	go run ./cmd/experiments -all -verify > /dev/null

fmt:
	gofmt -l -w .

# Fails (with the offending files listed) when anything is unformatted;
# mirrors the CI gofmt gate without rewriting the tree.
fmt-check:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "files need gofmt:" >&2; echo "$$out" >&2; exit 1; fi

vet:
	go vet ./...

# Two-level static analysis (see docs/STATIC_ANALYSIS.md): the repo-specific
# code analyzers over every package — test files included, for the
# determinism analyzers — then the plan-invariant verifier over every
# statement the bundled dataset workloads generate.
lint:
	go run ./cmd/kwlint -tests ./...
	go run ./cmd/kwlint -plans

# Machine-readable lint record; the CI and nightly workflows upload it as an
# artifact next to BENCH_PR4.json.
lint-json:
	go run ./cmd/kwlint -json -tests ./... > KWLINT.json || true
	go run ./cmd/kwlint -json -plans > KWLINT_PLANS.json || true
	@echo "wrote KWLINT.json KWLINT_PLANS.json"

# Mirrors .github/workflows/ci.yml exactly, so contributors can run the
# whole push gate locally before opening a PR (the PR-only fuzz,
# bench-regression and perfbench jobs are `go test -fuzz=FuzzExec
# -fuzztime=30s ./internal/sqldb/`, `make bench-check` and
# `make perfbench-smoke`).
ci: build vet fmt-check lint test test-shuffle test-race test-chaos test-prop test-backend test-incremental cover-check

# Run every example end to end.
examples:
	go run ./examples/quickstart
	go run ./examples/tpch
	go run ./examples/acmdl
	go run ./examples/unnormalized
	go run ./examples/relatedwork
