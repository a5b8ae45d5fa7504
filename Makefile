GO ?= go

# Tier-1 gate: what CI (and the seed) requires to stay green.
.PHONY: check
check: vet lint build test benchtest faults benchgate predgate memgate loadgate

.PHONY: vet
vet:
	$(GO) vet ./...

# Repo-specific static analysis (internal/lint via cmd/topolint) plus
# gofmt cleanliness. Exits non-zero on any unsuppressed finding; see
# DESIGN.md "Static analysis and invariants" for the analyzer roster and
# the //lint:ignore suppression contract.
.PHONY: lint
lint:
	$(GO) run ./cmd/topolint ./...
	@fmt=$$(gofmt -l .); if [ -n "$$fmt" ]; then \
		echo "gofmt drift in:"; echo "$$fmt"; exit 1; \
	fi

.PHONY: build
build:
	$(GO) build ./...

.PHONY: test
test:
	$(GO) test ./...

# The benchmark's own tests (bench/ is a separate module, so the root
# `go test ./...` never reaches them): every workload runs in-process on
# tiny inputs with its FP/FN/FT and byte-identity checks.
.PHONY: benchtest
benchtest:
	cd bench && $(GO) test ./...

# Race-detector pass over the concurrently instrumented packages
# (telemetry counters, simulated MPI ranks, distributed strategies, the
# shared-memory pipeline — including its faultinject-instrumented panic
# and degradation tests), the compression kernel they drive, the exact
# predicates whose SoS plan table every concurrent sweep reads, the
# filter counters that per-goroutine Locals flush into and the Ψ
# derivation that books into them, and the decode pipeline's shared
# state: the Huffman progress counter, the pooled Huffman decoders and
# the pooled DEFLATE readers.
.PHONY: race
race:
	$(GO) test -race ./internal/exact/ ./internal/exact/filter/ ./internal/derive/ ./internal/telemetry/ ./internal/mpi/ ./internal/parallel/ ./internal/core/ ./internal/shm/... ./internal/faultinject/ ./internal/flightrec/ ./internal/obs/ ./internal/codec/ ./internal/server/ ./internal/field/ ./internal/cp/ ./internal/archive/ ./internal/huffman/ ./internal/encoder/

# Fault soak: fault-injected pipeline runs plus the stream-integrity
# tests. Every run must end in a typed error, a degradation report with
# correct output, or bytes identical to a clean run — never a panic,
# never silent corruption.
.PHONY: faults
faults:
	$(GO) test -count=1 -run 'Fault|Integrity|Corrupt|Degrad|Straggler|Timeout|Fuzz|Checksum|Verify|Panic|FlightRecorder' \
		. ./internal/faultinject/ ./internal/integrity/ ./internal/archive/ \
		./internal/shm/ ./internal/mpi/ ./internal/parallel/ ./internal/core/ \
		./internal/server/ ./cmd/topozip/

# Short coverage-guided fuzzing of every decode surface and of the
# filtered predicates against their big.Int oracles. Raise FUZZTIME
# for a real session; `go test -fuzz` takes one target per invocation.
FUZZTIME ?= 5s
.PHONY: fuzz
fuzz:
	$(GO) test -fuzz=FuzzDecompress2D -fuzztime=$(FUZZTIME) ./internal/core/
	$(GO) test -fuzz=FuzzDecompress3D -fuzztime=$(FUZZTIME) ./internal/core/
	$(GO) test -fuzz=FuzzArchiveDecode -fuzztime=$(FUZZTIME) ./internal/archive/
	$(GO) test -fuzz=FuzzContainerDecompress -fuzztime=$(FUZZTIME) ./internal/shm/
	$(GO) test -fuzz=FuzzServerRequest -fuzztime=$(FUZZTIME) ./internal/server/
	$(GO) test -fuzz='^FuzzDecompress$$' -fuzztime=$(FUZZTIME) ./internal/cpsz/
	$(GO) test -fuzz='^FuzzSZLikeDecompress$$' -fuzztime=$(FUZZTIME) ./internal/baselines/
	$(GO) test -fuzz='^FuzzZFPLikeDecompress$$' -fuzztime=$(FUZZTIME) ./internal/baselines/
	$(GO) test -fuzz='^FuzzFPZIPLikeDecompress$$' -fuzztime=$(FUZZTIME) ./internal/baselines/
	$(GO) test -fuzz='^FuzzHuffmanDecompress$$' -fuzztime=$(FUZZTIME) ./internal/huffman/
	$(GO) test -fuzz='^FuzzFilterPredicates$$' -fuzztime=$(FUZZTIME) ./internal/exact/filter/

# Coverage gate for the compression kernel: fails below COVER_MIN%.
COVER_MIN ?= 85
.PHONY: cover
cover:
	$(GO) test -coverprofile=coverage.out ./internal/core/
	@$(GO) tool cover -func=coverage.out | tail -1
	@total=$$($(GO) tool cover -func=coverage.out | tail -1 | awk '{print $$3}' | tr -d '%'); \
	if [ $$(printf '%.0f' $$total) -lt $(COVER_MIN) ]; then \
		echo "coverage $$total% below minimum $(COVER_MIN)%"; exit 1; \
	fi

.PHONY: bench
bench:
	$(GO) test -bench=. -benchmem -run=^$$ .

# Record the Tables V-VII snapshot that `make benchgate` compares
# against: ratios and preservation counts (plus stage timings, which the
# gate ignores) at default dataset sizes.
.PHONY: baseline
baseline:
	$(GO) run ./cmd/cpbench -baseline-out results/BENCH_baseline.json baseline

# Tables V-VII gate: regenerate the snapshot from this tree and compare
# it with the committed one exactly (`cpbench trend`: every row's ratios
# by bits and its TP/FP/FN/FT counts). Both are deterministic, so any
# difference, better or worse, fails; an intended change is re-recorded
# with `make baseline` and explained in CHANGES.md. Speed is measured by
# bench/, not here.
.PHONY: benchgate
benchgate:
	@tmp=$$(mktemp -d) && trap 'rm -rf "$$tmp"' EXIT && \
	$(GO) run ./cmd/cpbench -baseline-out "$$tmp/BENCH_baseline.json" baseline && \
	$(GO) run ./cmd/cpbench trend results/BENCH_baseline.json "$$tmp/BENCH_baseline.json"

# Filtered-predicate efficacy gate (scripts/predgate.sh over
# `cpbench pred`): the certified float filter must keep its exact
# fallback rate under 5% on the golden detection sweeps, certify at
# least half the Ψ-quotient checks, and beat the unfiltered Int128
# reference by 1.5× on 3D orientation / 1.35× on Ψ derivation. Override
# thresholds via PREDGATE_FLAGS (passed through to cpbench pred).
PREDGATE_FLAGS ?=
.PHONY: predgate
predgate:
	sh scripts/predgate.sh $(PREDGATE_FLAGS)

# Out-of-core memory gate (scripts/memgate.sh): the stream soak must
# compress a field 10x its memory budget under an enforced heap
# ceiling, byte-identical at every worker count, and round-trip with
# every critical point preserved.
.PHONY: memgate
memgate:
	sh scripts/memgate.sh

# Service-level gate for the topozipd daemon (scripts/loadgate.sh over
# `cpbench load`): an in-process daemon must survive a three-level load
# sweep with zero non-shed errors, bounded p99 when not oversubscribed,
# real 429 shedding past saturation, and a healthy /healthz after a
# client-side fault soak (slow writes, mid-body disconnects, stalls).
# LOADGATE_FLAGS passes extra flags to the clean sweep (e.g.
# `-out results/BENCH_pr9_load.json` to refresh the snapshot).
LOADGATE_FLAGS ?=
.PHONY: loadgate
loadgate:
	sh scripts/loadgate.sh $(LOADGATE_FLAGS)

# Observability overhead gate: fully enabled instrumentation (collector
# + flight recorder) must cost <=3% over the disabled default on the
# ST4 Nek workload. Runs the kernel benchmark repeatedly, so it is a
# separate target rather than part of check.
.PHONY: overheadgate
overheadgate:
	sh scripts/overheadgate.sh

.PHONY: all
all: check race
