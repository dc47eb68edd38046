#!/bin/sh
# Tier-1 gate (same as `make ci`): vet, build, and the full test suite under
# the race detector. The experiment pipeline runs replays on a worker pool,
# so -race is part of the gate, not an optional extra.
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
# Served-ingest smoke: the block-kernel acceptance pair plus its equivalence
# anchor (block path == per-event path, counter for counter).
make serve-bench-smoke
# Short fuzz run over the tracelog decoder: seeds the corpus and catches
# regressions in the malformed-input hardening without a long fuzz budget.
go test ./internal/tracelog -run '^$' -fuzz FuzzReader -fuzztime 10s
# Policy-selection smoke: the online selector must actually switch, under the
# race detector, on a log whose best static policy differs from its starting
# one.
make policyselect-smoke
# Virtual-time gate: nothing on the virtual-clock plane may touch the wall
# clock. simclock/real.go is the single allowed call site (the Real clock);
# everything else must go through an injected simclock.Clock, or a virtual
# production day stops being bit-reproducible.
leaks=$(grep -rn 'time\.Now(\|time\.Since(\|time\.Sleep(\|time\.After(' \
    internal/server internal/core internal/dayload internal/workload \
    internal/simclock internal/sim internal/dbt internal/cluster \
    --include='*.go' \
    | grep -v _test.go | grep -v 'simclock/real.go' || true)
if [ -n "$leaks" ]; then
    echo "wall-clock calls on the virtual-time plane:" >&2
    echo "$leaks" >&2
    exit 1
fi
# Production-day smoke: the compressed diurnal day under the race detector —
# at least one admission resize, zero verification failures, schema-stable
# timeline CSV.
make prodday-smoke
# Attribution smoke: the trace-lifecycle ledger's "why" report must conserve
# exactly (causes sum to regenerations) and attribute a nonzero share of
# middle-tier deaths to premature demotion, under the race detector.
make attrib-smoke
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
# Snapshot-loader fuzz: a short run over persist.Load, which cluster bootstrap
# feeds with bytes off the peer network — malformed images must fail cleanly
# and accepted ones must round-trip through Save.
go test ./internal/persist -run '^$' -fuzz FuzzLoad -fuzztime 10s
# Cluster smoke: a 3-node distributed shared tier vs isolated nodes, under
# the race detector — at least one cross-node adoption, zero verification
# failures, deterministic across a double run.
make cluster-smoke
