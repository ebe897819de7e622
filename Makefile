GO ?= go

.PHONY: verify build vet fmt staticcheck test race fuzz chaos fabric-chaos obs-smoke load-check load-bench load-live bench bench-compare size

## verify: the tier-1 gate — build, vet, gofmt (+staticcheck when installed), full
## tests, race-test the concurrency-bearing packages (scheduler, surface
## sampler, treecode kernels, cluster transports, distributed engines, observability,
## serving, fabric, load harness), smoke the /metrics
## exposition, replay the admission tuner through a committed live decision
## log, then run the fabric worker-crash matrix. load-check joins verify
## because the replay is deterministic — it cannot flake on a loaded
## machine. Timing is judged separately: run
## `make bench-compare BASE=<parent>` before merging kernel-touching changes.
verify: build vet fmt staticcheck test race obs-smoke load-check fabric-chaos

build:
	$(GO) build ./...

## vet: go vet for this machine and for arm64, so that code and tests
## build off amd64 too (the vector kernels are amd64-only).
vet:
	$(GO) vet ./...
	GOARCH=arm64 $(GO) vet ./...

## fmt: every tracked Go file is gofmt-clean; any name printed fails.
fmt:
	@out=$$(gofmt -l $$(git ls-files '*.go')); \
	if [ -n "$$out" ]; then echo "gofmt -l:"; echo "$$out"; exit 1; fi

## staticcheck: run staticcheck over the observability and serving layers
## when the tool is on PATH; a bare toolchain skips it rather than failing.
staticcheck:
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./internal/obs/... ./internal/serve/... ./cmd/...; \
	else \
		echo "staticcheck not installed; skipping"; \
	fi

test:
	$(GO) test ./...

## race: the race detector over the concurrency-bearing packages. One pass
## of internal/engine alone takes ~6 minutes under -race on two cores, near
## go test's 10-minute default, so the timeout is stated.
race:
	$(GO) test -race -timeout 30m ./internal/sched/... ./internal/surface/... ./internal/core/... ./internal/cluster/... ./internal/engine/... ./internal/serve/... ./internal/obs/... ./internal/loadgen/... ./internal/fabric/...

## obs-smoke: boot the instrumented serving stack on a loopback port, drive
## requests through it and fail on any malformed /metrics exposition line
## or missing metric family (cmd/obssmoke; uses the library's own
## Prometheus text-format validator, no external tools).
obs-smoke:
	$(GO) run ./cmd/obssmoke

## fuzz: short smoke of the native fuzz targets (wire-frame decoder, PQR
## parser, load-trace spec, fabric membership wire, molecule-bearing HTTP
## request decoder, stream-frame bodies against a live session, the held
## E_pol list against its streamed oracle, a session stream against its
## every-frame resweep, the E_pol far kernel against farPair) on top of
## their seed corpora. CI-friendly budget;
## run with a larger -fuzztime locally to dig.
fuzz:
	$(GO) test ./internal/cluster/ -run '^$$' -fuzz FuzzDecodeFrame -fuzztime 10s
	$(GO) test ./internal/molecule/ -run '^$$' -fuzz FuzzParsePQR -fuzztime 10s
	$(GO) test ./internal/loadgen/ -run '^$$' -fuzz FuzzTraceSpec -fuzztime 10s
	$(GO) test ./internal/fabric/ -run '^$$' -fuzz FuzzDecodeMessage -fuzztime 10s
	$(GO) test ./internal/serve/ -run '^$$' -fuzz FuzzDecodeEnergyRequest -fuzztime 10s
	$(GO) test ./internal/serve/ -run '^$$' -fuzz FuzzStreamFrameBody -fuzztime 10s
	$(GO) test ./internal/engine/ -run '^$$' -fuzz FuzzPreparedEvalEpol -fuzztime 10s
	$(GO) test ./internal/engine/ -run '^$$' -fuzz FuzzSessionStream -fuzztime 10s
	$(GO) test ./internal/core/ -run '^$$' -fuzz FuzzEpolFarKernel -fuzztime 10s

## chaos: the full TCP fault matrix — every byte-level fault class (stall,
## duplicate, flip, truncate, blackhole) × P ∈ {2,4,8} × 8 seeds, for the
## engine and for a multi-chunk collective workload. Cells
## that fail by timeout spend it, so this takes minutes by design.
chaos:
	CHAOS_FULL=1 $(GO) test ./internal/cluster/ -run TestFaultMatrix -timeout 30m -v

## fabric-chaos: the serving fabric's worker-crash matrix — victim index ×
## crash mode (HTTP-only vs full) × hedging, each cell a live router + 3
## engine workers with one killed mid-load. Asserts no accepted request
## lost, ring convergence, and router health on the survivors. Seconds of
## wall time, so it rides in verify.
fabric-chaos:
	FABRIC_CHAOS=1 $(GO) test ./internal/fabric/ -run TestChaosWorkerCrashMatrix -count=1 -timeout 10m

## load-check: the admission tuner's regression gate — step a fresh
## serve.Tuner through every window of a committed live run's decision log
## (internal/serve/testdata/tuner-live-steady-mixed.json) and require the
## same decisions and the documented control law. Deterministic, under a
## second.
load-check:
	$(GO) test ./internal/serve -run '^TestTunerReplaysLiveLog$$' -count=1

## load-bench: re-record that log from an in-process live replay of the
## steady-mixed trace (~25 s of wall time). The binary is built, not run
## with `go run`, so the file carries its commit; it also carries
## GOMAXPROCS. Commit the result with any intentional change to the trace
## or the tuner.
load-bench:
	mkdir -p .bench_build
	$(GO) build -o .bench_build/loadgen ./cmd/loadgen
	.bench_build/loadgen -trace traces/steady-mixed.json -o internal/serve/testdata/tuner-live-steady-mixed.json

## load-live: wall-clock smoke of the live replay path — boots a real
## server on a loopback port and drives the small committed live trace
## through it. Latencies are honest but machine-dependent; nothing is
## gated on them.
load-live:
	$(GO) run ./cmd/loadgen -trace traces/live-smoke.json

## bench: every figure/table benchmark at reduced scale.
bench:
	$(GO) test -bench=. -benchmem

## bench-compare: before/after of the repository benchmark (cmd/bench,
## BENCHMARK.json) between a base commit and the working tree, the way a
## performance claim has to be shown: both cmd/bench binaries are built
## once (the base from a `git archive` of BASE under .bench_build/, which
## unlike a worktree leaves nothing registered in .git), every workload of
## the contract is run for the contract's run_seconds in ten pairs with
## tracing off and the side that goes first alternating from pair to pair,
## all runs of a side are appended to one fresh result file under
## .bench_out/, and `cmd/bench -compare` prints the verdict per (workload,
## metric) under the contract's bounds. SEED picks the inputs, so a claim
## can be checked on a seed development never saw. WORKLOADS narrows the
## loop to some of the contract's workloads while iterating on one; a claim
## is shown with the default, every workload. Needs jq.
##   make bench-compare BASE=HEAD~1 [SEED=1] [WORKLOADS="stream_md"]
BASE ?= HEAD
SEED ?= 1
WORKLOADS ?=
bench-compare:
	rm -rf .bench_build/base && mkdir -p .bench_build/base .bench_out
	git archive $(BASE) | tar -x -C .bench_build/base
	cd .bench_build/base && $(GO) build -o ../bench-base ./cmd/bench
	$(GO) build -o .bench_build/bench-head ./cmd/bench
	rm -f .bench_out/compare-base.json .bench_out/compare-head.json
	@seconds=$$(jq -r .run_seconds BENCHMARK.json) && workloads="$(WORKLOADS)" || exit 1; \
	if [ -z "$$workloads" ]; then workloads=$$(jq -r '.workloads[].name' BENCHMARK.json) || exit 1; fi; \
	for i in 1 2 3 4 5 6 7 8 9 10; do for w in $$workloads; do \
		if [ $$((i % 2)) -eq 1 ]; then order="base head"; else order="head base"; fi; \
		for side in $$order; do \
			echo "pair $$i/10 $$w $$side"; \
			.bench_build/bench-$$side --workload $$w --seed $(SEED) --seconds $$seconds --trace 0 \
				--out .bench_out/compare-$$side.json >/dev/null || exit 1; \
		done; \
	done; done
	.bench_build/bench-head -compare .bench_out/compare-base.json .bench_out/compare-head.json

## size: report the code-size figures ROADMAP item 7 tracks, with its
## targets beside them. It reports; it does not gate.
size:
	@echo "non-test Go lines: $$(git ls-files '*.go' | grep -v _test.go | xargs cat | wc -l) (target 24000)"
	@echo "_test.go lines:    $$(git ls-files '*_test.go' | xargs cat | wc -l)"
	@echo "DESIGN.md bytes:   $$(wc -c < DESIGN.md) (target 55000)"
