# Convenience targets for the wanfd repository.

GO ?= go

.PHONY: all build test race bench fmt vet lint cover reproduce fuzz clean

all: fmt vet lint build test

build:
	$(GO) build ./...

# The tier-1 command. It runs without -race because the zero-allocation
# tests skip under the race detector; `race` and `cover` turn it on.
test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Benchmarks run without -race: the detector's hot-path numbers are the
# point, and the race detector's ~10x slowdown would make them meaningless.
# The race target covers the same packages' tests.
bench:
	$(GO) test -bench=. -benchmem ./...

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
	$(GO) run ./cmd/wanfd wan
	$(GO) run ./cmd/wanfd accuracy
	$(GO) run ./cmd/wanfd qos -baselines

fuzz:
	$(GO) test -fuzz FuzzDecode -fuzztime 30s ./internal/transport/
	$(GO) test -fuzz FuzzHeartbeatRoundTrip -fuzztime 30s ./internal/transport/
	$(GO) test -fuzz FuzzReadBinary -fuzztime 30s ./internal/trace/
	$(GO) test -fuzz FuzzAccountingPaths -fuzztime 30s ./internal/nekostat/
	$(GO) test -fuzz FuzzAccrualMatchesReference -fuzztime 30s ./internal/core/
	$(GO) test -fuzz FuzzInlineStateMatchesReference -fuzztime 30s ./internal/core/

clean:
	$(GO) clean ./...
