# Tier-1 verification and perf targets. `make check` is the one-command
# gate: build, formatting, vet, tests, the race detector over the
# concurrent suite runner, the smoke targets and bench-smoke.

GO ?= go

.PHONY: check build fmt vet test race smoke-faults smoke-scale smoke-soak smoke-serve smoke-examples bench-smoke bench-mem loc

check: build fmt vet test race smoke-faults smoke-scale smoke-soak smoke-serve smoke-examples bench-smoke

build:
	$(GO) build ./...

# fmt fails if any Go file is not gofmt-clean.
fmt:
	test -z "$$(gofmt -l .)"

# vet also covers the benchmark module, which builds against the root
# package's API: a root change that breaks benchmark/ fails here.
vet:
	$(GO) vet ./...
	$(GO) -C benchmark vet ./...

# test also runs the benchmark module's harness tests (about 16 s),
# so `make check` covers everything CI runs for benchmark/.
test:
	$(GO) test ./...
	$(GO) -C benchmark test ./...

# race runs every test under the race detector, the intra-run parallel
# determinism tests (TestIntraRun*) included, with -short: the 512-node
# legs of the scale matrices alone outlast go test's 10-minute timeout
# under -race on a 2-CPU box. `make test` still runs those legs without
# -race. The experiment runner's cross-worker check (every experiment
# at Workers 1 and 4) skips itself under -short, so it is raced on its
# own.
race:
	$(GO) test -race -short ./...
	$(GO) test -race -run 'TestExperimentsMatchAcrossWorkers' -count=1 .

# smoke-faults exercises the fault-injection + NI reliable-delivery
# recovery path end to end: one short app at a 1% drop rate (with dups,
# delays, and corruption mixed in), validated against the sequential
# reference.
smoke-faults:
	$(GO) run ./cmd/genima-run -app fft -scale test -proto GeNIMA \
		-faults 0.01 -fault-seed 42 > /dev/null

# smoke-scale exercises the multi-stage fabrics end to end: one short
# app on a radix-32 clos2 under Base (interrupt barrier, flat) and
# GeNIMA (NI collective tree) at 64 nodes, plus a 128-node radix-16
# clos2 leg and a 128-node radix-8 fat-tree leg (5-hop routes through
# a core switch) — all with 1% faults, validated against the sequential
# reference.
smoke-scale:
	$(GO) run ./cmd/genima-run -app barrierbench -scale test -proto Base \
		-nodes 64 -procs 1 -topo clos2 -radix 32 \
		-faults 0.01 -fault-seed 42 > /dev/null
	$(GO) run ./cmd/genima-run -app barrierbench -scale test -proto GeNIMA \
		-nodes 64 -procs 1 -topo clos2 -radix 32 -collectives \
		-faults 0.01 -fault-seed 42 > /dev/null
	$(GO) run ./cmd/genima-run -app barrierbench -scale test -proto GeNIMA \
		-nodes 128 -procs 1 -topo clos2 -radix 16 -collectives \
		-faults 0.01 -fault-seed 42 > /dev/null
	$(GO) run ./cmd/genima-run -app barrierbench -scale test -proto GeNIMA \
		-nodes 128 -procs 1 -topo fattree -radix 8 -collectives \
		-faults 0.01 -fault-seed 42 > /dev/null

# smoke-soak exercises soak-scale long-run ops end to end, asserting
# checkpoint/restore determinism from the shell like an operator would:
#   (1) single run under faults: halt at a rolling-checkpoint boundary
#       (exit 130), restore, final canonical trace hash must be
#       byte-identical to an uninterrupted run's; then restore the
#       checkpoint onto itself with -stop-after 1: the replayed
#       boundaries are silent, so it halts at the first boundary past
#       the cut (4000, not 1000), and a restore from there still ends
#       on the uninterrupted hash;
#   (2) soak campaign under faults: kill -INT once the first rolling
#       cursor checkpoint lands (signal-safe shutdown, exit 130),
#       resume with -soak-restore, final verification chain must equal
#       an uninterrupted campaign's, and the JSONL stats log is
#       non-empty;
#   (3) soak campaign halted by -soak-stop-after 3: exit 0 with
#       interrupted=true, then -soak-restore finishes the campaign
#       with the uninterrupted chain.
SOAKTMP := /tmp/genima-smoke-soak
smoke-soak:
	rm -rf $(SOAKTMP) && mkdir -p $(SOAKTMP)
	$(GO) build -o $(SOAKTMP)/genima-run ./cmd/genima-run
	$(GO) build -o $(SOAKTMP)/genima-bench ./cmd/genima-bench
	$(SOAKTMP)/genima-run -app fft -scale bench -proto GeNIMA \
		-faults 0.01 -fault-seed 42 -trace-hash \
		| grep -o 'trace-hash=[0-9a-f]*' > $(SOAKTMP)/hash.full
	sh -c '$(SOAKTMP)/genima-run -app fft -scale bench -proto GeNIMA \
		-faults 0.01 -fault-seed 42 -trace-hash \
		-checkpoint $(SOAKTMP)/run.ckpt -checkpoint-every 1000 -stop-after 3 \
		> /dev/null 2> $(SOAKTMP)/halt.err; test $$? -eq 130'
	$(SOAKTMP)/genima-run -app fft -scale bench -proto GeNIMA \
		-faults 0.01 -fault-seed 42 -trace-hash -restore $(SOAKTMP)/run.ckpt \
		| grep -o 'trace-hash=[0-9a-f]*' > $(SOAKTMP)/hash.resumed
	cmp $(SOAKTMP)/hash.full $(SOAKTMP)/hash.resumed
	sh -c '$(SOAKTMP)/genima-run -app fft -scale bench -proto GeNIMA \
		-faults 0.01 -fault-seed 42 -trace-hash -checkpoint-every 1000 \
		-restore $(SOAKTMP)/run.ckpt -checkpoint $(SOAKTMP)/run.ckpt -stop-after 1 \
		> /dev/null 2> $(SOAKTMP)/rehalt.err; test $$? -eq 130'
	grep -q 'halted at trace event 4000;' $(SOAKTMP)/rehalt.err
	$(SOAKTMP)/genima-run -app fft -scale bench -proto GeNIMA \
		-faults 0.01 -fault-seed 42 -trace-hash -restore $(SOAKTMP)/run.ckpt \
		| grep -o 'trace-hash=[0-9a-f]*' > $(SOAKTMP)/hash.rehalted
	cmp $(SOAKTMP)/hash.full $(SOAKTMP)/hash.rehalted
	$(SOAKTMP)/genima-bench -exp soak -scale test -soak-events 4000000 \
		-faults 0.01 -fault-seed 5 -q \
		| grep -o 'chain=[0-9a-f]*' > $(SOAKTMP)/chain.full
	sh -c '$(SOAKTMP)/genima-bench -exp soak -scale test -soak-events 4000000 \
		-faults 0.01 -fault-seed 5 -q \
		-soak-checkpoint $(SOAKTMP)/soak.ckpt -soak-stats $(SOAKTMP)/soak.jsonl \
		> $(SOAKTMP)/soak.out 2>&1 & pid=$$!; \
		n=0; until test -f $(SOAKTMP)/soak.ckpt; do \
			n=$$((n+1)); test $$n -lt 200 || exit 1; sleep 0.05; \
		done; \
		kill -INT $$pid; wait $$pid; st=$$?; \
		test $$st -eq 130 || { echo "soak kill leg: exit $$st, want 130" \
			"(campaign too short? raise -soak-events)"; exit 1; }'
	$(SOAKTMP)/genima-bench -exp soak -scale test -soak-events 4000000 \
		-faults 0.01 -fault-seed 5 -q -soak-restore \
		-soak-checkpoint $(SOAKTMP)/soak.ckpt -soak-stats $(SOAKTMP)/soak.jsonl \
		| grep -o 'chain=[0-9a-f]*' > $(SOAKTMP)/chain.resumed
	cmp $(SOAKTMP)/chain.full $(SOAKTMP)/chain.resumed
	test -s $(SOAKTMP)/soak.jsonl
	$(SOAKTMP)/genima-bench -exp soak -scale test -soak-iters 40 -soak-events 0 \
		-faults 0.01 -fault-seed 5 -q \
		| grep -o 'chain=[0-9a-f]*' > $(SOAKTMP)/chain40.full
	out=$$($(SOAKTMP)/genima-bench -exp soak -scale test -soak-iters 40 -soak-events 0 \
		-faults 0.01 -fault-seed 5 -q -soak-stop-after 3 \
		-soak-checkpoint $(SOAKTMP)/stop.ckpt) \
		&& echo "$$out" | grep -q 'iters=3 .*interrupted=true'
	$(SOAKTMP)/genima-bench -exp soak -scale test -soak-iters 40 -soak-events 0 \
		-faults 0.01 -fault-seed 5 -q -soak-restore -soak-checkpoint $(SOAKTMP)/stop.ckpt \
		| grep -o 'chain=[0-9a-f]*' > $(SOAKTMP)/chain40.resumed
	cmp $(SOAKTMP)/chain40.full $(SOAKTMP)/chain40.resumed
	rm -rf $(SOAKTMP)

# smoke-serve exercises the svmkv open-loop serving workload end to
# end at test scale on two protocol rungs (interrupt-driven Base and
# synchronous-NI GeNIMA, the latter under 1% faults), each validated
# against the sequential reference. The serving path's serial/parallel
# trace identity is pinned by TestSvmkvTraceByteIdentical and
# TestSvmkvScaleTraceByteIdentical.
smoke-serve:
	$(GO) run ./cmd/genima-run -app svmkv -scale test -proto Base > /dev/null
	$(GO) run ./cmd/genima-run -app svmkv -scale test -proto GeNIMA \
		-faults 0.01 -fault-seed 42 > /dev/null

# smoke-examples builds and runs every library-surface example end to
# end (each validates its own result and exits non-zero on failure);
# the four take well under a second together.
EXAMPLES := quickstart sort stencil tuning
smoke-examples:
	for e in $(EXAMPLES); do \
		$(GO) run ./examples/$$e > /dev/null || exit 1; \
	done

# bench-smoke runs every micro- and suite-benchmark once — a fast "do
# the benchmarks still build and run" gate, not a measurement. The
# ./internal/sim pass includes BenchmarkCrossLPHandoff, the cross-LP
# handoff cost of the conservative-parallel engine; the ./internal/app
# pass, the shared-memory accessor hit and miss paths.
bench-smoke:
	$(GO) test -run xxx -bench . -benchtime 1x ./internal/sim ./internal/memory ./internal/vmmc ./internal/app
	$(GO) test -run xxx -bench 'Suite|CollectiveBarrier|Build512|Run512|ServePoint' -benchtime 1x .

# bench-mem measures allocation pressure on the messaging hot paths
# (Deposit, remote fetch, broadcast, NI locks) and on the shared-memory
# accessors (a TLB hit or miss allocates nothing), the bytes it takes to
# build a 512-node cluster and to run one 512-node Base flat barrier
# benchmark, and the bytes one bench-scale serve point allocates. The
# pooled pipeline keeps the closed-loop paths at 0 allocs/op; per-peer
# state allocated on first contact keeps the build linear in Nodes;
# per-node tables allocated on first touch keep the run small; per-LP
# record pools keep the serve point's diff and page-fetch records
# recycling.
bench-mem:
	$(GO) test -run xxx -bench . -benchmem ./internal/vmmc ./internal/sim ./internal/app
	$(GO) test -run xxx -bench 'Build512|Run512|ServePoint' -benchmem .

# loc prints the number of non-test Go source lines outside benchmark/
# (and outside hidden build directories such as .bench_build/): the
# reproducible size figure a simplification cites before and after.
loc:
	@find . -path './.*' -prune -o -path './benchmark' -prune -o \
		-name '*.go' ! -name '*_test.go' -print | xargs cat | wc -l
