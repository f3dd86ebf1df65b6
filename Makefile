# Stdlib-only Go module; every target needs nothing but the go toolchain.

GO ?= go

.PHONY: all build perfbench-build test race vet bench bench-engine bench-fault fuzz smoke-engine recovery-quick oracle-quick families-quick transport-quick soak-quick q14-smoke verify

all: verify

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

vet:
	$(GO) vet ./...

# perfbench is its own module (perfbench/go.mod), so the root
# `go build ./...` never compiles it; vet and build it here so a change
# to the cluster or stream API cannot break the benchmark silently.
perfbench-build:
	$(GO) -C perfbench vet .
	$(GO) -C perfbench build -o /dev/null .

bench:
	$(GO) test -bench=. -benchmem

# Re-measure the engine's headline Q10 ATA microbenchmark and record
# events/sec, ns/event, allocs/event, live-heap footprint, and the
# calibrated ratio the smoke-engine gate grades (ns/event over a fixed
# calibration workload timed in the same run), with the host
# fingerprint and the pre-flat-array baseline for comparison, in
# BENCH_engine.json.
bench-engine:
	$(GO) run ./cmd/enginebench -o BENCH_engine.json

# Run the adversarial fault campaign over sq4,q4,q6,h3 and record the
# measured tolerance frontier per topology plus campaign throughput
# (placements/s) in BENCH_fault.json. Exits non-zero if any placement
# at or under the paper's link-domain bounds breaks delivery.
bench-fault:
	$(GO) run ./cmd/faultcamp -o BENCH_fault.json

# Short fuzz smoke over the voter, the MAC verify path, the
# temporal-plan validator/compiler (the spots that take adversarial
# bytes or adversarial plans), the metrics merge (worker-count
# independence of the observability aggregates), the calendar queue
# (differential pop-order equivalence against the reference heap), the
# transport wire codec (decode never panics, accepted frames re-encode
# canonically), and the decomposition registry (family constructors
# never panic on arbitrary parameters; valid instances build and their
# names round-trip), mirroring the CI budget.
fuzz:
	$(GO) test -fuzz=FuzzVoteUnsigned -fuzztime=15s ./internal/reliable
	$(GO) test -fuzz=FuzzKeyringVerify -fuzztime=15s ./internal/reliable
	$(GO) test -fuzz=FuzzTemporalPlan -fuzztime=15s ./internal/fault
	$(GO) test -fuzz=FuzzMetricsMerge -fuzztime=15s ./internal/observe
	$(GO) test -fuzz=FuzzCalendarQueue -fuzztime=15s ./internal/simnet
	$(GO) test -fuzz=FuzzFrameDecode -fuzztime=15s ./internal/transport
	$(GO) test -fuzz=FuzzFamilyParams -fuzztime=15s ./internal/hamilton

# Engine-regression smoke: nine measured Q10 ATA runs interleaved with
# passes of a fixed calibration workload; fails if allocs/event exceeds
# 10x, or the median calibrated ratio (ns/event over calibration ns/op)
# exceeds 1.15x, the values recorded in BENCH_engine.json — the event
# loop must stay allocation-free and calendar-queue fast even with the
# repair controller layer compiled in. The ratio moves with the code,
# not the host, so the gate holds on machines other than the recorder.
smoke-engine:
	$(GO) run ./cmd/enginebench -quick -check -o /dev/null

# Quick self-healing sweep: the repaired broken-link frontier must beat
# the static γ bound on every topology (exits non-zero otherwise).
recovery-quick:
	$(GO) run ./cmd/ihcbench -quick -run recovery

# Quick oracle sweep: the live theorem checker verifies contention-
# freeness / occupancy / routes / exact finishes on the small
# topologies (η >= μ must pass, η < μ must be flagged), then one
# deliberate η < μ strict run that MUST exit non-zero — proving the
# checker fails loudly, not silently.
oracle-quick:
	$(GO) run ./cmd/ihcbench -quick -run contention
	@if $(GO) run ./cmd/atasim -net SQ4 -algo ihc -eta 1 -oracle-strict >/dev/null 2>&1; then \
		echo "oracle-quick: strict oracle FAILED to reject an η < μ run"; exit 1; \
	else \
		echo "oracle-quick: strict oracle correctly rejected the η < μ run"; \
	fi

# Quick family-registry gate: the cross-family conformance suite
# (every registered family's instances through build validity, static
# contention-freeness, exact live-oracle finish, and γ-copy
# postcondition), one quick adversarial campaign point on the new
# families (TQ4 + the 4-ary 2-torus), and the quick `families`
# experiment (IHC finish vs the Table II closed form on twisted cubes
# and vs the Jung-Sakho per-link load bound on k-ary tori).
families-quick:
	$(GO) test -count=1 -run TestCrossFamilyConformance ./internal/hamilton
	$(GO) run ./cmd/faultcamp -quick -topo tq4,kt4x2 -o /dev/null
	$(GO) run ./cmd/ihcbench -quick -run families

# Counters-only Q14 full-ATA smoke: the paper-scale memory-boundedness
# check. The O(N) copy ledger replaces both the O(N²) matrix and the
# O(events) delivery log, so the ~3.8e9-event run holds a bounded
# resident heap (reported on exit) while still verifying the exact
# γ-copies Theorem 4 postcondition. Takes a few minutes of single-core
# time; deliberately not part of `verify`.
q14-smoke:
	$(GO) run ./cmd/atasim -net Q14 -algo ihc -eta 2 -ledger

# Real-transport smoke: first the transport/chaos/stream/cluster/repair
# unit tests under the race detector (jittered backoff, breaker
# transitions, chaos-plan verdicts, the peer-dies-and-reconnects NAK
# path, and the in-process loopback + TCP chaos rounds, each a
# one-epoch run of the stream node), then the
# multi-process check — `ihcd -launch` boots 8 real ihcd daemons, each
# one stream.Node running one epoch, as separate OS processes on a Q3
# overlay with a socket-level chaos proxy on every link, SIGKILLs node 6
# mid-round, partitions link {1,3}, and requires every survivor's
# epoch verdict to show the exact γ-copy postcondition plus a clean
# (exit 0) SIGTERM shutdown; the -faultfree leg additionally requires
# the wall-clock delivery multiset to equal the discrete-event engine's.
transport-quick:
	$(GO) test -race -count=1 ./internal/transport ./internal/chaos ./internal/stream ./internal/cluster ./internal/repair ./internal/hlc
	$(GO) run ./cmd/ihcd -launch
	$(GO) run ./cmd/ihcd -launch -faultfree

# Quick streaming soak (≤60s wall, usually ~4s): a Q3 loopback cluster
# streams 24 pipelined epochs through the bounded ingress queues while
# the chaos layer drops/dups/corrupts/delays frames, node 6 is killed
# mid-stream and cold-restarts into the epoch-resume handshake, and
# link {1,3} is partitioned for a window. The verdict requires every
# survivor to hold the exact γ-copy ledger postcondition on every
# epoch, the rejoiner to catch up all missed epochs, and zero
# high-priority sheds; the watchdog turns a hang into exit 4 instead
# of a stuck CI job.
soak-quick:
	$(GO) run ./cmd/ihcd -soak -deadline 60s

# The tier-1 gate: vet + build (the root module, then perfbench) +
# tests, then the same tests under the race detector (the parallel
# sweep executor must stay race-clean), then the engine-regression
# smoke, the quick recovery sweep, the quick oracle sweep, the quick
# family-registry gate, the real-transport multi-process smoke, and
# the streaming chaos soak.
verify: vet build perfbench-build test race smoke-engine recovery-quick oracle-quick families-quick transport-quick soak-quick
