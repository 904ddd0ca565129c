# Convenience targets for the wanfd repository.

GO ?= go

.PHONY: all build test race bench benchguard fmt vet lint cover reproduce fuzz clean

all: fmt vet lint build test

build:
	$(GO) build ./...

test:
	$(GO) test -race ./...

race:
	$(GO) test -race ./...

# Benchmarks run without -race: the detector's hot-path numbers are the
# point, and the race detector's ~10x slowdown would make them meaningless.
# The race target covers the same packages' tests.
bench:
	$(GO) test -bench=. -benchmem ./...

# Allocation-regression gates for the transport pipelines and the
# scheduler dispatch path: run the benchmarks and fail if any benchmark
# recorded at 0 allocs/op in its baseline (BENCH_ingest.json /
# BENCH_egress.json / BENCH_sched.json) allocates at all, or a non-zero
# baseline regresses by more than 5%. Wall-clock is reported but never
# gated (CI noise).
benchguard:
	$(GO) test -run '^$$' -bench BenchmarkIngest -benchtime 100000x . | $(GO) run ./cmd/benchguard -baseline BENCH_ingest.json
	$(GO) test -run '^$$' -bench 'BenchmarkEgress|BenchmarkPipeline' -benchtime 100000x . | $(GO) run ./cmd/benchguard -baseline BENCH_egress.json
	$(GO) test -run '^$$' -bench 'BenchmarkCluster1k/steady/sharded|BenchmarkCluster10k' -benchtime 20000x . | $(GO) run ./cmd/benchguard -baseline BENCH_sched.json
	$(GO) test -run '^$$' -bench BenchmarkSched1M -benchtime 200000x ./internal/sched | $(GO) run ./cmd/benchguard -baseline BENCH_sched.json

fmt:
	gofmt -l . && test -z "$$(gofmt -l .)"

vet:
	$(GO) vet ./...

# Repo-specific invariants (clock boundary, mutex discipline, atomics,
# nil-safety, unit mixing) — see internal/analysis.
lint:
	$(GO) run ./cmd/fdlint ./...

cover:
	$(GO) test -race -cover ./...

# Regenerate every table and figure of the paper.
reproduce:
	$(GO) run ./cmd/fdwan
	$(GO) run ./cmd/fdaccuracy
	$(GO) run ./cmd/fdqos -baselines

fuzz:
	$(GO) test -fuzz FuzzDecode -fuzztime 30s ./internal/transport/
	$(GO) test -fuzz FuzzHeartbeatRoundTrip -fuzztime 30s ./internal/transport/
	$(GO) test -fuzz FuzzReadBinary -fuzztime 30s ./internal/trace/

clean:
	$(GO) clean ./...
