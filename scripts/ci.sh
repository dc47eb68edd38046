#!/bin/sh
# Tier-1 gate: vet, build, and the full test suite under the race detector,
# then a one-iteration benchmark run and short fuzz passes. The experiment
# pipeline runs replays on a worker pool, so -race is part of the gate, not
# an optional extra. Every other check, from the CLI goldens and the studies
# to the examples and the wall-clock rule, is a Go test.
set -eux

# Formatting gate: gofmt -l prints offending files; any output fails the CI.
fmt_out=$(gofmt -l .)
if [ -n "$fmt_out" ]; then
    echo "gofmt: files need formatting:" >&2
    echo "$fmt_out" >&2
    exit 1
fi

go vet ./...
go build ./...
go test -race ./...
# Benchmark smoke run: one iteration of everything, so benchmarks can't rot.
go test -run '^$' -bench . -benchtime 1x .
# Short fuzz run over the tracelog decoder: seeds the corpus and catches
# regressions in the malformed-input hardening without a long fuzz budget.
go test ./internal/tracelog -run '^$' -fuzz FuzzReader -fuzztime 10s
# Block-decoder fuzz: NextBlock, which every served session body goes
# through, must decode exactly what per-event Next does, windowed or not.
go test ./internal/tracelog -run '^$' -fuzz FuzzNextBlock -fuzztime 10s
# Run-cut differential fuzz: capping every guest run at fuzzed lengths must
# leave a collection's log, statistics and lifetimes, and a round robin's
# per-process logs, byte-identical to the uncut run's.
go test ./internal/workload -run '^$' -fuzz FuzzStepCuts -fuzztime 10s
# Policy differential fuzz: every op sequence must drive the indexed first
# fit, the recency-list LRU and the resumable TRRIP search to the same
# victims, errors and layout as the straightforward reference versions.
go test ./internal/policy -run '^$' -fuzz FuzzPolicyOps -fuzztime 10s
# Attribution endpoint fuzz: a short run over the /v1/attrib query parser —
# seeds the corpus, catches panics and half-validated filters.
go test ./internal/server -run '^$' -fuzz FuzzAttribQuery -fuzztime 10s
# Session-query fuzz: whatever the query parser accepts must build a tier
# graph spec, so a malformed tiers/layout/policy is refused before admission.
go test ./internal/server -run '^$' -fuzz FuzzSessionQuery -fuzztime 10s
# Binary-stats fuzz: the client decodes GCST frames off the network — malformed
# frames must fail cleanly and accepted ones must round-trip.
go test ./internal/server/api -run '^$' -fuzz FuzzStatsBinary -fuzztime 10s
# Trace-exchange wire fuzz: a short run over every exchange message codec —
# decoders must reject malformed frames and round-trip well-formed ones.
go test ./internal/cluster -run '^$' -fuzz FuzzWire -fuzztime 10s
# Shard-list fuzz: the peer snapshot handler parses the shards query off the
# peer network — no input may panic it, and an accepted list must be in range
# and round-trip through FormatShards.
go test ./internal/cluster -run '^$' -fuzz FuzzParseShards -fuzztime 10s
# Snapshot-loader fuzz: a short run over persist.Load, which cluster bootstrap
# feeds with bytes off the peer network — malformed images must fail cleanly
# and accepted ones must round-trip through Save.
go test ./internal/persist -run '^$' -fuzz FuzzLoad -fuzztime 10s
