GO ?= go

.PHONY: all build test race vet fmt bench bench-baseline ab

all: build test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

vet:
	$(GO) vet ./...

fmt:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then echo "gofmt needed on:"; echo "$$out"; exit 1; fi

# Hot-path microbenchmarks (state store, codec, parallel executor).
bench:
	$(GO) test -bench '.' -benchtime 200ms -run '^$$' ./internal/state/ ./internal/types/ ./internal/execution/

# Record the microbenchmark numbers to BENCH_state.json.
bench-baseline:
	sh scripts/bench_baseline.sh BENCH_state.json

# Paired A/B benchmark runs, parent commit against the working tree:
#   make ab PARENT=<ref> [AB_ARGS='--pairs 5 contended-chain']
ab:
	@test -n "$(PARENT)" || { echo "usage: make ab PARENT=<ref> [AB_ARGS='--pairs N workload…']"; exit 2; }
	bash scripts/ab.sh $(PARENT) $(AB_ARGS)
