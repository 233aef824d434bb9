# Development entry points. CI (.github/workflows/ci.yml) runs the same
# commands; `make check` is the full local equivalent of the CI gate.

GO ?= go

.PHONY: build test race lint fmt generate check sweepd hpserve dist-smoke cache-smoke serve-smoke chaos-smoke sample-smoke fuzz

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# lint runs the repo's own static-analysis suite — all nine analyzers
# (go run ./cmd/hpvet -list) plus stale //hp:nolint detection — and go
# vet, over the main module and over the benchmark harness in
# _perfbench (a separate module that `go build ./...` skips, so an API
# change that breaks it would otherwise go unnoticed). It exits
# non-zero on any finding.
lint:
	$(GO) vet ./...
	$(GO) vet -C _perfbench ./...
	$(GO) run ./cmd/hpvet

fmt:
	gofmt -l -w .

# generate rewrites the generated CPI-stack balance test
# (internal/uarch/cpistack_balance_gen_test.go) from the current
# CycleClass constants; it runs as part of the tier-1 `go test ./...`
# path, and TestCPIStackGeneratedCurrent fails if it goes stale.
generate:
	$(GO) run ./cmd/hpvet -write-cpistack-test

# sweepd builds the distributed-sweep worker daemon into bin/.
sweepd:
	$(GO) build -o bin/sweepd ./cmd/sweepd

# hpserve builds the simulation-as-a-service daemon into bin/.
hpserve:
	$(GO) build -o bin/hpserve ./cmd/hpserve

# dist-smoke runs the distributed-sweep equivalence check CI runs: two
# local sweepd workers, one figures sweep through the coordinator,
# byte-identical output vs the serial run, well-formed merged NDJSON.
dist-smoke:
	bash scripts/dist-smoke.sh

# cache-smoke runs the result-store crash/resume check CI runs: SIGKILL
# a caching sweep mid-flight, resume from the same cache directory,
# byte-identical output vs an uninterrupted run.
cache-smoke:
	bash scripts/cache-smoke.sh

# serve-smoke runs the simulation-as-a-service check CI runs: hpserve
# over a two-worker token-authenticated fleet, two tenants end to end —
# auth, NDJSON streaming, a cross-tenant result-CDN hit, and a 429 with
# Retry-After from a one-slot admission queue.
serve-smoke:
	bash scripts/serve-smoke.sh

# chaos-smoke runs the deterministic fault-storm check CI runs: the
# internal/chaos storm tests (a seeded faulty transport over a
# two-worker fleet — results byte-identical to serial, exactly-once
# accounting, bounded time) plus a process-level sweep through sweepd
# workers injecting seeded -chaos-seed pre-run delays.
chaos-smoke:
	bash scripts/chaos-smoke.sh

# sample-smoke runs the sampled-simulation check CI runs: the t2 sweep
# full and sampled at the same budget — sampled output must carry ci95
# columns, stay near the full-detail IPCs, and be byte-identical across
# two identical sampled runs.
sample-smoke:
	bash scripts/sample-smoke.sh

# fuzz runs each fuzz target for 20 s, as CI does (go test fuzzes one
# target at a time). FuzzWorkerStream: arbitrary worker response bodies
# must never panic the coordinator's NDJSON reader or double-fire
# observer events. FuzzJournalReplay: an arbitrary hpserve journal must
# replay to an error or a job list, and its rewrite must replay to the
# same jobs. FuzzTraceFile: arbitrary bytes through the binary trace
# reader must decode to an error or records, and decoded records must
# survive a write/read round trip unchanged. Seed corpora live in
# internal/{dist,serve,trace}/testdata/fuzz.
fuzz:
	$(GO) test -run '^$$' -fuzz FuzzWorkerStream -fuzztime=20s ./internal/dist
	$(GO) test -run '^$$' -fuzz FuzzJournalReplay -fuzztime=20s ./internal/serve
	$(GO) test -run '^$$' -fuzz FuzzTraceFile -fuzztime=20s ./internal/trace

check: build lint race
