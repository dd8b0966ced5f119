# Local and CI entry points. CI (.github/workflows/ci.yml) calls these
# exact targets so a green `make ci` locally means a green pipeline.

GO ?= go

.PHONY: build test race bench bench-smoke benchpairs benchgate bench-profile examples serve-smoke load-smoke lint fmt ci

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# The parallel equivalence tests run under the race detector here; this is
# the gate that keeps the work-stealing layer honest.
race:
	$(GO) test -race ./...

# Bench smoke: one iteration of every benchmark, no unit tests.
bench:
	$(GO) test -bench=. -benchtime=1x -run='^$$' ./...

# The end-to-end benchmark (bench/, a module of its own that the root
# `go build ./...` and `go test ./...` never compile): vet it and run its
# own tests — a smoke run of every workload with its correctness checks,
# plus the pacer and calibration tests. It calls fusion.Build,
# fusion.UpdateProblem and fusion.BuildOptions directly, so an internal
# API change that breaks it fails here.
bench-smoke:
	cd bench && $(GO) vet ./... && $(GO) test ./...

# The serial/parallel, full/incremental, flat/sharded,
# sorted/unsorted-Apply and serving-layer benchmark pairs plus the
# problem-construction stages (Build, UpdateProblem), at 1 and 4 cores —
# the multi-core trajectory CI records per push (bench.txt). -benchmem
# records allocs/op, which the gate compares raw since allocation counts
# are hardware-independent (whole-Run benches allocate their per-run
# scratch, so the counts are small but nonzero; the per-round zero-alloc
# property itself is asserted by internal/fusion/alloc_test.go).
# pipefail keeps a failed/panicking bench run from hiding behind tee.
# The committed baseline is the median of five separate passes
# (benchdiff -parse records the median of repeated benchmarks):
#   for i in 1 2 3 4 5; do make benchpairs >/dev/null && cat bench.txt; done > bench5.txt
#   go run ./cmd/benchdiff -parse bench5.txt > testdata/bench_baseline.json
benchpairs: SHELL := /bin/bash
benchpairs:
	set -o pipefail; $(GO) test -run='^$$' -bench='(Serial|Parallel|Incremental|SnapshotApply|Sharded|Serve|Store|Distributed|Kernel|Planned|ProblemBuild|UpdateProblem)' -cpu=1,4 -benchtime=3x -benchmem . ./internal/model ./internal/fusion | tee bench.txt

# Regression gate: hardware-normalised ns/op against the committed
# baseline (see cmd/benchdiff). BENCH is the candidate JSON.
BENCH ?= bench.json
benchgate:
	$(GO) run ./cmd/benchdiff -old testdata/bench_baseline.json -new $(BENCH) -threshold 1.20

# CPU + allocation profiles of the hottest fusion loops. CI uploads the
# pprof files (plus the test binary that resolves their symbols) per
# push, so a layout regression can be diagnosed straight from the run
# page with `go tool pprof truthdiscovery.test cpu.pprof`. The top-10
# cumulative text reports make the hot-kernel split readable from the
# artifact without running pprof locally.
bench-profile:
	$(GO) test -run='^$$' \
		-bench='BenchmarkFusionAccuFormatAttrSerial|BenchmarkMethodAccuPr$$|BenchmarkMethodCosine$$|BenchmarkMethodTwoEstimates$$' \
		-benchtime=5x -benchmem -cpuprofile=cpu.pprof -memprofile=mem.pprof .
	$(GO) tool pprof -top -cum -nodecount=10 truthdiscovery.test cpu.pprof > cpu.top10.txt
	$(GO) tool pprof -top -cum -nodecount=10 truthdiscovery.test mem.pprof > mem.top10.txt

# Serving smoke: start truthserved on an ephemeral port, curl every
# endpoint, and check one served answer against cmd/fuse on the same
# claims (plus the shared flag validation). CI runs this in the test job.
serve-smoke:
	GO=$(GO) ./scripts/serve-smoke.sh

# Load-harness smoke: truthload drives a short read/write mix against a
# live truthserved and its bench line round-trips through benchdiff
# (see scripts/load-smoke.sh). The gated serving-latency numbers come
# from the BenchmarkServeLoad* pairs in benchpairs, not from this smoke.
load-smoke:
	GO=$(GO) ./scripts/load-smoke.sh

# Smoke-run every example program (tier-1 only builds them).
examples:
	@set -e; for d in examples/*/; do \
		echo "== $$d"; \
		$(GO) run ./$$d > /dev/null; \
	done

lint:
	@fmtout="$$(gofmt -l .)"; \
	if [ -n "$$fmtout" ]; then \
		echo "gofmt needed on:"; echo "$$fmtout"; exit 1; \
	fi
	$(GO) vet ./...

fmt:
	gofmt -w .

ci: lint build race bench bench-smoke examples serve-smoke load-smoke
