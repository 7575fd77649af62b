GO ?= go

.PHONY: build vet fmt-check test race bench examples loc wire-budget mem-budget bench-home bench-rpc fuzz-smoke soak-churn bench-churn soak-delivery bench-delivery bench-aggregate benchmark-unit benchmark-smoke ci

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# gofmt must have nothing to say about any Go file in the tree.
fmt-check:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then echo "gofmt -l lists:"; echo "$$out"; exit 1; fi

test:
	$(GO) test -shuffle=on ./...

race:
	$(GO) test -race -shuffle=on -timeout 900s ./...

bench:
	$(GO) test -bench=. -benchtime=1x -run=^$$ ./...

# Run every example under a timeout: each must exit 0 and print exactly its
# checked-in expected.txt. The tests build and vet them; this is where they
# run. After a deliberate change to an example's output, regenerate its file
# with `go run ./examples/<name> > examples/<name>/expected.txt`.
examples:
	@for d in examples/*/; do \
		echo "examples: $$d"; \
		out=$$(timeout 120 $(GO) run ./$$d) || { echo "$$d failed"; exit 1; }; \
		printf '%s\n' "$$out" | diff -u $${d}expected.txt - || { echo "$$d printed other than $${d}expected.txt"; exit 1; }; \
	done

# The size figures every simplicity PR reports, counted the same way each
# time: the two files the node protocol lives in, the framed connection and
# the two writers built on it (one sum), all non-test Go outside benchmark/
# (its own module), cmd/movebench's share of that, the index layer's lines,
# the delivery tier's lines, the number of stored BENCH_*.json reports, the node's surface: live msg*
# message types (retired numbers are comments, not constants) and exported
# top-level identifiers — functions, methods, types, variables, constants —
# counted the same way for the index, and the two operator surfaces:
# cmd/movectl's lines and the flags `moved -h` lists — plus the one server
# assembly, internal/daemon with cmd/moved, its flag front end.
loc:
	@wc -l internal/node/node.go internal/node/proto.go | sed '$$d'
	@cat $(filter-out %_test.go,$(wildcard internal/frame/*.go)) internal/transport/writer.go internal/delivery/server.go | wc -l | sed 's/$$/ internal\/frame\/*.go (non-test) + transport\/writer.go + delivery\/server.go/'
	@find . -name '*.go' ! -name '*_test.go' ! -path './benchmark/*' -print0 | xargs -0 cat | wc -l | sed 's/$$/ non-test Go lines outside benchmark\//'
	@cat $(filter-out %_test.go,$(wildcard cmd/movebench/*.go)) | wc -l | sed 's/$$/ cmd\/movebench (non-test)/'
	@cat $(filter-out %_test.go,$(wildcard cmd/movectl/*.go)) | wc -l | sed 's/$$/ cmd\/movectl (non-test)/'
	@cat $(filter-out %_test.go,$(wildcard internal/daemon/*.go cmd/moved/*.go)) | wc -l | sed 's/$$/ internal\/daemon + cmd\/moved (non-test)/'
	@cat $(filter-out %_test.go,$(wildcard internal/index/*.go)) | wc -l | sed 's/$$/ internal\/index (non-test)/'
	@cat $(filter-out %_test.go,$(wildcard internal/delivery/*.go)) | wc -l | sed 's/$$/ internal\/delivery (non-test)/'
	@cat $(filter-out %_test.go,$(wildcard internal/store/*.go)) | wc -l | sed 's/$$/ internal\/store (non-test)/'
	@echo "$(words $(wildcard BENCH_*.json)) BENCH_*.json files"
	@cat internal/node/proto.go internal/node/deliver.go | grep -cE '^(const)?[[:space:]]+msg[A-Za-z]+[[:space:]]+=[[:space:]]+[0-9]+' | sed 's/$$/ live msg* message types (internal\/node proto.go + deliver.go)/'
	@cat $(filter-out %_test.go,$(wildcard internal/node/*.go)) | grep -cE '^(func (\([a-z]+ \*?[A-Z][A-Za-z0-9]*\) )?|type |var |const )[A-Z]' | sed 's/$$/ exported identifiers in internal\/node (non-test)/'
	@cat $(filter-out %_test.go,$(wildcard internal/index/*.go)) | grep -cE '^(func (\([a-z]+ \*?[A-Z][A-Za-z0-9]*\) )?|type |var |const )[A-Z]' | sed 's/$$/ exported identifiers in internal\/index (non-test)/'
	@grep -cE 'flag\.[A-Z][A-Za-z0-9]*\("' cmd/moved/main.go | sed 's/$$/ moved flags/'

# The codec layer's microbench: every frame one document costs, by frame
# class, in the three shapes the repository benchmark publishes — built with
# the production encoders, no daemon and no clock, one row per class. Fails
# when a class passes its ceiling; quote its table before changing a frame.
wire-budget:
	$(GO) test -count=1 -run TestWireBudget -v ./internal/node

# The index layer's memory microbench: heap bytes one registered filter costs
# in the three populations the repository benchmark registers, on an index
# over a store without a data directory (what its daemons run), one row per
# population; then match_heavy's figure split by what holds the bytes (covers,
# definitions, posting entries, term arrays, dictionary), the fixed heap of an
# empty index, the bytes a departed filter leaves behind under fresh-ID
# churn, and the bytes per distinct document term no filter names that a
# document stream through MatchTerms leaves behind (a match writes nothing
# to the index). Fails when a row passes its ceiling; quote
# its table before changing what Register or a match retains. Those rows
# call index.Register themselves; the rows of internal/node register match_heavy through the register path of both homes of
# a two-node ring, each sent its share as the benchmark's harness sends it: the
# home of a MatchAll filter's key term keeps it, keyed once, the other declines
# it — filters held and posting entries per filter cluster-wide (exactly 1.0
# each) and the heap bytes per filter over both homes. Then the churn soak
# (TestMemChurnSoak, both packages): rounds of fresh-ID unregister/register
# pairs at a constant live population, on a bare index and through Handle on
# a two-home ring with a committed grid; the post-GC heap after the last round
# must stay within 2 % of the heap after the first. Then the document-stream
# soak (TestMemDocStreamSoak, internal/node): a constant wire_mixed-shaped
# population on a two-home ring takes rounds of home-routed publish frames
# whose 8-term documents draw half their words fresh, in no filter; the
# post-GC heap after the last round must stay within 2 % of the first. Then
# the library soak (TestClusterDocStreamHeapFlat, internal/cluster): a
# two-node SchemeMove cluster with filters registered takes rounds of
# Cluster.Publish whose documents carry fresh words; the post-GC heap after
# the last round must stay within 2 % of the first — the coordinator keeps no
# per-term state of what it publishes.
mem-budget:
	$(GO) test -count=1 -run 'TestMemBudget|TestMemChurnSoak|TestMemDocStreamSoak|TestClusterDocStreamHeapFlat' -v ./internal/index ./internal/node ./internal/cluster

# The home nodes' microbench for match_heavy: the population registered
# through Handle on both homes of a two-node ring, one document — a home-routed
# publish frame per home — per iteration. Reports ns/doc, posting entries
# scanned per document on both homes (what holding a MatchAll filter on one
# home, under one key, divides), matches the homes report per document before
# the entry's dedup and heap bytes per filter; compare against a parent binary
# built with `go test -c` (copy internal/node/matchheavy_test.go into its tree).
bench-home:
	$(GO) test -run='^$$' -bench=BenchmarkHomeMatchConjunctive -benchtime=2000x ./internal/node

# The RPC tier's microbench: one warm round trip between two in-process
# nodes over loopback TCP, a 600-byte request (match_heavy's median home RPC)
# and an empty answer, serial and RunParallel; reports ns/op and allocs/op.
# Compare against a parent binary built with `go test -c` (copy
# internal/transport/tcp_bench_test.go into its tree).
bench-rpc:
	$(GO) test -run='^$$' -bench=BenchmarkTCPRoundTrip -benchtime=20000x -count=5 ./internal/transport

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
	$(GO) test -run='^$$' -fuzz=FuzzStoreReplay -fuzztime=10s ./internal/store

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
# subscriber connect/disconnect churn, stalled readers (acks withheld)
# making the bounded queues shed their oldest events — the run fails if
# they never shed —,
# node crash/recover cycles, and reallocation rounds racing live publishes. Every published document's notifications must be
# fully accounted — received, pending in a bounded queue, queue-dropped,
# or route-lost — with zero silent losses and zero phantom deliveries.
soak-delivery:
	SOAK_DELIVERY_ROUNDS=40 $(GO) test -race -run TestDeliverySoak -timeout 900s -v ./internal/cluster

# Regenerate the checked-in delivery baseline (BENCH_delivery.json): 100k
# live subscriber sessions on a 20-node cluster with immediate flushing,
# every publish's fan-out verified against a brute-force inverted-index
# oracle, publish->delivery p50/p99 and fan-out amplification recorded.
# dropped must be 0 or the run fails outright; a >10% (+25ms slack) p99
# regression against the checked-in baseline fails the target (and CI)
# before the file is overwritten.
bench-delivery:
	$(GO) run ./cmd/movebench -fig delivery -out BENCH_delivery.json -baseline BENCH_delivery.json

# Regenerate the checked-in index-aggregation baseline
# (BENCH_aggregate.json): serving-layer bytes/filter of the covering index
# over 1M Zipf-drawn filter instances, with every document's match set
# verified byte-identical to a brute-force scan of all the filters. A
# mismatch fails outright; more than 10% bytes/filter over the checked-in
# baseline fails the target (and CI) before the file is overwritten.
bench-aggregate:
	$(GO) run ./cmd/movebench -fig aggregate -out BENCH_aggregate.json -baseline BENCH_aggregate.json

# The repository benchmark (BENCHMARK.json, benchmark/README.md) is its
# own module, invisible to `go test ./...`: run its unit tests, then each
# workload for 8 seconds. The smoke asserts no metric value — only that the
# run's last line reports the oracle's verdict as correct with no failed
# operation.
benchmark-unit:
	bash benchmark/run.sh -unit

benchmark-smoke:
	@for w in wire_mixed match_heavy fanout_heavy; do \
		echo "benchmark-smoke: $$w"; \
		last=$$(bash benchmark/run.sh --workload $$w --seed 1 --seconds 8 --trace 0 | tail -n 1); \
		echo "$$last" | grep -q '"correct":true' && echo "$$last" | grep -q '"failed":0[,}]' || { echo "$$w failed: $$last"; exit 1; }; \
	done

# .github/workflows/ci.yml runs these same steps in this order.
ci: vet fmt-check build examples loc wire-budget mem-budget bench-home race fuzz-smoke soak-churn soak-delivery bench-churn bench-delivery bench-aggregate benchmark-unit benchmark-smoke
