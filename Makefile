GO ?= go

.PHONY: build vet test race bench loc fuzz-smoke bench-publish bench-alloc soak-churn bench-churn soak-delivery bench-delivery bench-aggregate bench-wire ci

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test -shuffle=on ./...

race:
	$(GO) test -race -shuffle=on ./...

bench:
	$(GO) test -bench=. -benchtime=1x -run=^$$ ./...

# The size figures every simplicity PR reports, counted the same way each
# time: the two files the node protocol lives in, the framed connection and
# the two writers built on it (one sum), and all non-test Go outside
# benchmark/ (its own module).
loc:
	@wc -l internal/node/node.go internal/node/proto.go | sed '$$d'
	@cat $(filter-out %_test.go,$(wildcard internal/frame/*.go)) internal/transport/writer.go internal/delivery/server.go | wc -l | sed 's/$$/ internal\/frame\/*.go (non-test) + transport\/writer.go + delivery\/server.go/'
	@find . -name '*.go' ! -name '*_test.go' ! -path './benchmark/*' -print0 | xargs -0 cat | wc -l | sed 's/$$/ non-test Go lines outside benchmark\//'

# Short native-fuzzing runs of every checked-in fuzz target — enough to
# shake out regressions in the codec, framing, tokenizer, index and
# node-dispatcher invariants on each CI run without burning minutes.
fuzz-smoke:
	$(GO) test -run='^$$' -fuzz=FuzzCodecRoundTrip -fuzztime=10s ./internal/codec
	$(GO) test -run='^$$' -fuzz=FuzzFrameRead -fuzztime=10s ./internal/frame
	$(GO) test -run='^$$' -fuzz=FuzzTokenize -fuzztime=10s ./internal/text
	$(GO) test -run='^$$' -fuzz=FuzzDeliverFrameRoundTrip -fuzztime=10s ./internal/delivery
	$(GO) test -run='^$$' -fuzz=FuzzIndexRegisterMatch -fuzztime=10s ./internal/index
	$(GO) test -run='^$$' -fuzz=FuzzNodeHandle -fuzztime=10s ./internal/node

# Regenerate the checked-in publish-latency baseline (BENCH_publish.json):
# e2e publish p50/p95/p99 plus single-vs-batch match throughput on the
# calibrated workload. The fresh run is compared against the checked-in
# baseline first — a >20% publish p95 regression fails the target (and
# CI) before the file is overwritten.
bench-publish:
	$(GO) run ./cmd/movebench -fig bench -out BENCH_publish.json -baseline BENCH_publish.json

# Regenerate the checked-in allocation baseline (BENCH_alloc.json):
# allocs/op and B/op for the warm match hot path, single publish, and the
# batched pipeline, with match results verified byte-identical against a
# brute-force oracle. The fresh run is compared against the checked-in
# baseline first — a >10% allocs/op or B/op regression fails the target
# (and CI) before the file is overwritten.
bench-alloc:
	$(GO) run ./cmd/movebench -fig alloc -out BENCH_alloc.json -baseline BENCH_alloc.json

# Full chaos soak of the two-phase reallocation protocol under the race
# detector: 100 consecutive realloc rounds with Zipf-drift, flash crowds,
# seeded fault injection, crash/recover churn, and forced mid-prepare
# aborts; every publish is asserted byte-identical to a brute-force
# oracle, and every aborted round must leave the cluster on the old epoch
# with no partial state.
soak-churn:
	CHURN_ROUNDS=100 $(GO) test -race -run TestChurnSoak -timeout 900s -v ./internal/cluster

# Regenerate the checked-in churn baseline (BENCH_churn.json): realloc
# round p50/p95 latency, dual-read window p95, migrated/GC'd filter
# counts from a fault-injected soak with live publishes racing every
# cutover. dropped_matches must be 0 or the run fails outright; a >10%
# (+25ms slack) regression on either p95 against the checked-in baseline
# fails the target (and CI) before the file is overwritten.
bench-churn:
	$(GO) run ./cmd/movebench -fig churn -out BENCH_churn.json -baseline BENCH_churn.json

# Chaos soak of the end-to-end delivery tier under the race detector:
# subscriber connect/disconnect churn, stalled readers triggering the
# slow-consumer policy, node crash/recover cycles, and reallocation rounds
# racing live publishes. Every published document's notifications must be
# fully accounted — received, pending in a bounded queue, policy-dropped,
# or route-lost — with zero silent losses and zero phantom deliveries.
soak-delivery:
	SOAK_DELIVERY_ROUNDS=40 $(GO) test -race -run TestDeliverySoak -timeout 900s -v ./internal/cluster

# Regenerate the checked-in delivery baselines. The default (CI) profile
# attaches 100k live subscriber sessions on a 20-node cluster with
# immediate flushing, verifies every publish's fan-out against a
# brute-force inverted-index oracle, and records publish->delivery
# p50/p99 and fan-out amplification into BENCH_delivery.json. dropped
# must be 0 or the run fails outright; a >10% (+25ms slack) p99
# regression against the checked-in baseline fails the target (and CI)
# before the file is overwritten.
#
# `make bench-delivery SUBS=1000000` runs the full-scale profile instead:
# 1M live sessions, wave publishing inside one writer-coalescing window,
# same oracle gates, plus a hard frames_per_syscall > 2.0 requirement;
# the result lands in BENCH_delivery_1m.json. Too slow for every CI run —
# regenerate it whenever the delivery tier changes.
SUBS ?= 100000
bench-delivery:
ifeq ($(SUBS),1000000)
	$(GO) run ./cmd/movebench -fig delivery -subs 1000000 -delivery-docs 96 -delivery-wave 96 -delivery-flush-batch 4 -delivery-flush-delay 120s -out BENCH_delivery_1m.json -baseline BENCH_delivery_1m.json
else
	$(GO) run ./cmd/movebench -fig delivery -subs $(SUBS) -out BENCH_delivery.json -baseline BENCH_delivery.json
endif

# Regenerate the checked-in index-aggregation baseline
# (BENCH_aggregate.json): serving-layer bytes/filter for the flat vs the
# aggregated covering index over 1M Zipf-drawn filter instances, with
# every document's aggregated match set verified byte-identical to the
# flat oracle. A reduction below the 30% acceptance floor fails outright;
# a >10% regression against the checked-in baseline (relative reduction
# lost, or agg bytes/filter gained) fails the target (and CI) before the
# file is overwritten.
bench-aggregate:
	$(GO) run ./cmd/movebench -fig aggregate -out BENCH_aggregate.json -baseline BENCH_aggregate.json

# Regenerate the checked-in real-TCP wire baseline (BENCH_wire.json): the
# harness launches WIRE_NODES separate moved processes on loopback TCP,
# attaches WIRE_SUBS live subscriber sessions, and drives WIRE_DOCS
# concurrent batched publishes per round through real sockets, verifying
# every match set and the full delivery fan-out against a brute-force
# oracle. One cluster, two rounds, best round reported. Hard gates: the RPC
# writer must merge > 2.0 frames per write syscall; a >10% docs/sec
# regression against the checked-in baseline (its coalesced.docs_per_sec)
# fails the target (and CI) before the file is overwritten.
#
# Knobs: WIRE_NODES (daemon count), WIRE_DOCS (documents per measured
# round), WIRE_SUBS (live sessions), WIRE_FLUSH_DELAY (the writer's
# coalescing window; 0 = natural coalescing only). The same window is
# passed to every daemon's -rpc.flush-delay and the bench client.
WIRE_NODES ?= 8
WIRE_DOCS ?= 1600
WIRE_SUBS ?= 800
WIRE_FLUSH_DELAY ?= 200us
bench-wire:
	$(GO) run ./cmd/movebench -fig wire -wire-nodes $(WIRE_NODES) -wire-docs $(WIRE_DOCS) -wire-subs $(WIRE_SUBS) -wire-flush-delay $(WIRE_FLUSH_DELAY) -out BENCH_wire.json -baseline BENCH_wire.json

ci: vet build loc race fuzz-smoke soak-churn soak-delivery bench-publish bench-alloc bench-churn bench-delivery bench-aggregate bench-wire
