# Jinjing reproduction — common development targets.

GO ?= go

.PHONY: all build test test-full race fuzz fuzz-backends fuzz-snapshots faults daemon-test lint bench bench-compare profile experiments examples vet fmt clean

all: build vet test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

fmt:
	gofmt -l -w .

# Default suite: vet, the fast (-short) tier, then a race-detector pass
# over the concurrency-bearing packages (parallel fix and generate,
# deadline polls, obs sinks, the daemon) and the solver packages whose
# references the core tests share. Stays well under the ~9 min
# full-suite budget.
test: vet
	$(GO) test -short ./...
	$(GO) test -race -short ./internal/core ./internal/sat ./internal/smt ./internal/obs/... ./internal/serve

# Full suite: everything, including the §8 experiment tables with the
# large WAN (tens of minutes on a single-core machine).
test-full:
	JINJING_EXPERIMENTS_LARGE=1 $(GO) test -timeout 30m ./...

# Race-detector pass over the fast suite (the fix/generate worker pool,
# deadline polls against the context's timer, obs sinks).
race:
	$(GO) test -race -short ./...

# Bounded differential-fuzz corpus: the full (non-short) randomized
# harness pinning Check at Workers = 1 == Workers = k (which check
# ignores) == monolithic, plus the sequential-vs-parallel fix agreement
# corpus.
fuzz:
	$(GO) test -count=1 -run 'TestFuzz|TestFixParallelMatchesSequential' ./internal/core

# Three-way backend lane: the fixed 200-case differential corpus (the
# check, at the default cube budget and at two cubes, vs a per-FEC SAT
# reference on a fresh solver per FEC vs monolithic, witness replay
# included; the last 40 cases each carry one random control), then 30
# seconds of open-ended native fuzzing over random networks, edits, and
# option toggles.
fuzz-backends:
	$(GO) test -count=1 -run TestFuzzBackendThreeWay ./internal/core
	$(GO) test -run '^$$' -fuzz FuzzBackendAgreement -fuzztime 30s ./internal/core

# Snapshot-codec lane: the committed corpus plus the structured
# mutation sweep (flags, lengths, pair refs, checksum, truncation, and
# resealed flips in the ACL section) and 30 seconds of open-ended native
# fuzzing over Decode, each input also decoded with a matching checksum
# so damage reaches the ACL texts and the pair table.
fuzz-snapshots:
	$(GO) test -count=1 -run 'TestSnapshotRestoreMutationSweep|TestFuzzSnapshotEditSequences' ./internal/store ./internal/core
	$(GO) test -run '^$$' -fuzz FuzzSnapshotRestore -fuzztime 30s ./internal/store

# Fault-injection lane: every TestFault* scenario (interrupted check
# decisions, generate's AECs blocked by injected timeouts and transient
# faults or by an expired deadline, check panics, split and whole-region verdicts mixed in one
# cache, fix-pool panics and collapse, deadline cancellation, snapshot
# write/restore crashes) under the race
# detector. The faultinject registry is process-global, so these tests
# never run in parallel with each other.
faults:
	$(GO) test -race -short -count=1 -run 'TestFault' ./internal/core ./internal/faultinject ./internal/store ./internal/serve

# jinjingd daemon lane: the end-to-end warm-session suite (including
# the warm-daemon vs cold-CLI byte-identity check, which builds the
# jinjing binary — hence no -short), the concurrency/admission tests,
# the restart-recovery suite, the process-level crash-and-restart chaos
# tests (TestChaos*), and the serve.job fault scenarios, all under the
# race detector; then 30 seconds of open-ended native fuzzing over the
# request decode, which holds the one-pass decode to the strict decoder
# on every input.
daemon-test:
	$(GO) test -race -count=1 ./internal/serve ./internal/obs/stats
	$(GO) test -run '^$$' -fuzz FuzzSessionRequest -fuzztime 30s ./internal/serve

# Formatting + static checks; fails when any file needs gofmt. The
# benchmark is its own module, so it is vetted from its directory.
lint:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi
	$(GO) vet ./...
	cd benchmark && $(GO) vet ./...

# The operator benchmark (benchmark/README.md names the workloads): one
# 10-second untraced run of workload W on the real binaries, appended to
# .bench_build/runs.jsonl.
#   make bench W=check-all-large
bench:
	bash benchmark/run.sh --workload $(W) --seconds 10 --trace 0 -out .bench_build/runs.jsonl

# Compare two sets of benchmark runs (what the PR gate does): per-metric
# medians, win counts and bounds. `make bench` builds jjbench.
#   make bench-compare PARENT=a.jsonl CHANGE=b.jsonl
bench-compare:
	.bench_build/bin/jjbench compare $(PARENT) $(CHANGE)

# Profile one benchmark: CPU and heap profiles (and the test binary they
# resolve against) under .bench_build/profile/, then the cumulative top
# of the CPU profile — where to look before and after a performance change.
#   make profile BENCH=GenerateWAN/migration PKG=./internal/core
BENCH ?= GenerateWAN/migration
PKG ?= ./internal/core
profile:
	mkdir -p .bench_build/profile
	$(GO) test -run '^$$' -bench '$(BENCH)' -benchtime 5x -benchmem \
		-o .bench_build/profile/bench.test -outputdir .bench_build/profile \
		-cpuprofile cpu.pprof -memprofile mem.pprof $(PKG)
	$(GO) tool pprof -top -cum -nodecount 40 .bench_build/profile/bench.test .bench_build/profile/cpu.pprof

# Regenerate the evaluation tables (small+medium; add -large manually)
# plus the machine-readable BENCH_experiments.json artifact.
experiments:
	$(GO) run ./cmd/jinjing-experiments -json BENCH_experiments.json

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/migration
	$(GO) run ./examples/isolation

clean:
	$(GO) clean ./...
