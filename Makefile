# Tier-1 gate: everything a change must pass before it lands.
# `make ci` is what the roadmap calls the tier-1 verify, extended with the
# race detector now that the experiment pipeline runs on a worker pool.

GO ?= go

.PHONY: ci fmt vet build test race bench-smoke serve-bench-smoke procs-smoke adaptive-smoke fuzz-smoke policyselect-smoke prodday-smoke attrib-smoke cluster-smoke

ci: fmt vet build race bench-smoke serve-bench-smoke

fmt:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt: files need formatting:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# One iteration of every benchmark so they cannot bit-rot; part of ci.
bench-smoke:
	$(GO) test -run '^$$' -bench . -benchtime 1x .

# One iteration of the served-ingest pair plus its equivalence anchor; part
# of ci, so the acceptance benchmark cannot bit-rot.
serve-bench-smoke:
	$(GO) test -run 'TestServePathsAgree' -bench 'ServeIngest' -benchtime 1x .

# Multi-process smoke: generate a tiny log and replay it as four processes
# over one shared persistent tier, under the race detector.
procs-smoke:
	$(GO) run ./cmd/tracegen -bench gzip -scale 0.03125 -o /tmp/procs-smoke.cclog
	$(GO) run -race ./cmd/ccsim -log /tmp/procs-smoke.cclog -procs 4
	rm -f /tmp/procs-smoke.cclog

# Short fuzz run over the tracelog decoder; seeds the corpus.
fuzz-smoke:
	$(GO) test ./internal/tracelog -run '^$$' -fuzz FuzzReader -fuzztime 10s

# Policy-selection smoke: replay a log whose best static policy is not the
# selector's starting one (eon favors the pseudo-circular sweep), under the
# race detector, and require that the selector actually switched.
policyselect-smoke:
	$(GO) run ./cmd/tracegen -bench eon -scale 0.05 -o /tmp/policyselect-smoke.cclog
	$(GO) run -race ./cmd/ccsim -log /tmp/policyselect-smoke.cclog -tiers 100 -policy auto -selepoch 256 | tee /tmp/policyselect-smoke.out
	grep -q 'selector: [1-9][0-9]* switches' /tmp/policyselect-smoke.out
	rm -f /tmp/policyselect-smoke.cclog /tmp/policyselect-smoke.out

# Production-day smoke: the compressed standard day (24h in ~2 virtual
# minutes: diurnal mixes, a 4am deploy, an evening flash crowd) under the
# race detector. Requires at least one admission resize, zero offline
# verification failures, the deploy and crowd visible in the event stream,
# and the timeline CSV schema unchanged.
prodday-smoke:
	$(GO) run -race ./cmd/gencached prodday -sessions 24 -parallel 2 \
		-csv /tmp/prodday-smoke.csv -ndjson /tmp/prodday-smoke.ndjson \
		| tee /tmp/prodday-smoke.out
	grep -q 'resizes=[1-9][0-9]* verify-failures=0' /tmp/prodday-smoke.out
	grep -q 'prodday: PASS' /tmp/prodday-smoke.out
	head -1 /tmp/prodday-smoke.csv | grep -qx 'hour,arrivals,admitted,rejected,completed,queued,slots,queue_cap,resizes,accesses,misses,miss_rate,adoptions,published,shared_used,mean_latency_ms,cold,capacity,premature_demotion,never_promoted,unmap_forced,adoption_miss'
	grep -q 'why: [0-9][0-9]* regenerations' /tmp/prodday-smoke.out
	grep -q 'conserved true' /tmp/prodday-smoke.out
	grep -q '"kind":"deploy"' /tmp/prodday-smoke.ndjson
	grep -q '"crowd":true' /tmp/prodday-smoke.ndjson
	rm -f /tmp/prodday-smoke.csv /tmp/prodday-smoke.ndjson /tmp/prodday-smoke.out

# Attribution smoke: replay a log with the trace-lifecycle ledger attached,
# under the race detector, and require the per-module "why" report to
# conserve exactly and to attribute a nonzero share of middle-tier deaths to
# premature demotion (gzip's probation gate reliably deletes hot traces).
attrib-smoke:
	$(GO) run ./cmd/tracegen -bench gzip -scale 0.0625 -o /tmp/attrib-smoke.cclog
	$(GO) run -race ./cmd/ccsim -log /tmp/attrib-smoke.cclog -why | tee /tmp/attrib-smoke.out
	grep -q 'conservation: [0-9][0-9]* cause counts == [0-9][0-9]* regenerations (exact)' /tmp/attrib-smoke.out
	grep -q 'premature-demotion' /tmp/attrib-smoke.out
	grep -q 'why: probation threshold' /tmp/attrib-smoke.out
	rm -f /tmp/attrib-smoke.cclog /tmp/attrib-smoke.out

# Cluster smoke: the deterministic cluster-vs-isolated study (a 3-node
# distributed shared tier over the in-process loopback transport) under the
# race detector. Requires at least one cross-node adoption, zero offline
# verification failures, a deterministic double run, and the cluster arm
# paying fewer generations than the isolated arm.
cluster-smoke:
	$(GO) run -race ./cmd/gencached cluster -sessions 12 | tee /tmp/cluster-smoke.out
	grep -q 'cross-node-adoptions=[1-9][0-9]* verify-failures=0 deterministic=true' /tmp/cluster-smoke.out
	grep -q 'cluster: PASS' /tmp/cluster-smoke.out
	rm -f /tmp/cluster-smoke.out

# Adaptive smoke: a short replay with the split controller attached, under
# the race detector, on both the stock three-tier shape and a four-tier one.
adaptive-smoke:
	$(GO) run ./cmd/tracegen -bench gzip -scale 0.0625 -o /tmp/adaptive-smoke.cclog
	$(GO) run -race ./cmd/ccsim -log /tmp/adaptive-smoke.cclog -adaptive -epoch 512
	$(GO) run -race ./cmd/ccsim -log /tmp/adaptive-smoke.cclog -tiers 30-10-20-40@1,2 -adaptive -epoch 512
	rm -f /tmp/adaptive-smoke.cclog
