GO ?= go

.PHONY: all build test shard-matrix race lint vet unitlint lint-baseline chaos scenarios fuzz obs-smoke bench-e2e-smoke profile-sim profile-live golden replay-digest mutants loc ci

all: build

build:
	$(GO) build ./...

test:
	$(GO) test ./...
	$(MAKE) shard-matrix

# Shard-count invariance leg: the golden replication pin (experiments
# reads UNIT_SHARDS, comma-separated), the front-door router property
# suites (engine + live server) and the weak-scaled scenario replays,
# all under -race. shards=1 staying green proves sharding disabled is a
# bitwise no-op; 2 and 8 pin the scatter-gather and merge laws.
SHARD_MATRIX ?= 1,2,8
shard-matrix:
	UNIT_SHARDS=$(SHARD_MATRIX) $(GO) test -race -run 'Shard' ./internal/engine/ ./internal/experiments/ ./internal/scenario/ ./internal/server/

# The live server (internal/server) is the concurrency hot spot; -race
# over the whole tree keeps the guarded-by annotations honest.
race:
	$(GO) test -race ./...

vet:
	$(GO) vet ./...

# unitlint enforces the determinism invariants with three syntactic
# analyzers: detclock, seededrand and usmrange (see cmd/unitlint -help).
# Lock discipline and exactly-one-outcome have no analyzer: the tests,
# run plain and under -race, kill their mutants (make mutants).
# Findings stream to lint.json (the CI artifact); anything not in
# lint.baseline, or recorded there but stale under -strict-baseline,
# fails the run. ./... covers internal/lint and cmd/unitlint too.
unitlint:
	$(GO) run ./cmd/unitlint -json -strict-baseline ./... > lint.json; code=$$?; cat lint.json; exit $$code

# Re-record the tolerated-findings baseline. An empty lint.baseline is
# the healthy state: new findings should be fixed, not baselined.
lint-baseline:
	printf '%s\n' \
	  '# unitlint tolerated-findings baseline (JSON lines, one finding per line;' \
	  '# regenerate with make lint-baseline). Findings match by file, analyzer,' \
	  '# and message - not line numbers, which drift. Empty is the healthy state:' \
	  '# fix new findings instead of baselining them.' > lint.baseline
	$(GO) run ./cmd/unitlint -json -baseline - ./... >> lint.baseline; \
	$(GO) run ./cmd/unitlint ./...

lint: vet unitlint

# Chaos regression, under -race: seeded fault injection against the
# simulator (replay and exactly-once in internal/faults, the recovery law
# per fault in internal/scenario's TestChaosRecovery) plus the live
# server's failure paths.
chaos:
	$(GO) test -race -run 'TestChaos|TestPanic|TestCancellation|TestGracefulDrain|TestShed' ./...

# Scenario library: named, seeded end-to-end failure stories with
# asserted recovery properties (internal/scenario) under -race, then a
# replay of every scenario via cmd/unitscenario, dumping each run's
# report and trace JSONL into scenario-traces/ (the CI artifact). The
# replay exits non-zero if any recovery property is violated. unittrace
# then distills the dumps into one deterministic critical-path report
# (per-stage percentiles, outcome slices, slowest queries) that rides
# along in the same artifact.
scenarios:
	$(GO) test -race ./internal/scenario/
	mkdir -p scenario-traces
	$(GO) run ./cmd/unitscenario run -all -outdir scenario-traces > scenario-traces/reports.json
	$(GO) run ./cmd/unittrace scenario-traces/*.jsonl > scenario-traces/critical-path.txt
	tail -n 5 scenario-traces/critical-path.txt

# Fuzz smoke: each target briefly, catching regressions in the HTTP
# input contract, the wire codec's agreement with net/url and
# encoding/json, the shard router's partition/merge laws, the event
# kernel's schedule order and the lock table's agreement with its
# reference model without an open-ended fuzzing session.
FUZZTIME ?= 10s
fuzz:
	$(GO) test -fuzz=FuzzParseItems -fuzztime=$(FUZZTIME) ./internal/server/
	$(GO) test -fuzz=FuzzQueryHandler -fuzztime=$(FUZZTIME) ./internal/server/
	$(GO) test -fuzz=FuzzQueryParam -fuzztime=$(FUZZTIME) ./internal/server/
	$(GO) test -fuzz=FuzzQueryResponseWire -fuzztime=$(FUZZTIME) ./internal/server/
	$(GO) test -fuzz=FuzzDecodeWire -fuzztime=$(FUZZTIME) ./internal/server/
	$(GO) test -fuzz=FuzzShardRouter -fuzztime=$(FUZZTIME) ./internal/engine/
	$(GO) test -fuzz=FuzzSchedule -fuzztime=$(FUZZTIME) ./internal/eventsim/
	$(GO) test -fuzz=FuzzLockTable -fuzztime=$(FUZZTIME) ./internal/lockmgr/

# Observability smoke: boot unitd on an ephemeral local port, then lint
# the /metrics exposition (cmd/obslint retries the fetch while the server
# boots and fails on any malformed line or missing family — including the
# per-stage latency histograms and the build-info gauge) and probe the
# JSON debug endpoints. Kills the server whichever way the gate ends.
OBS_PORT ?= 18411
obs-smoke:
	$(GO) build -o bin/unitd ./cmd/unitd
	$(GO) build -o bin/obslint ./cmd/obslint
	./bin/unitd -addr 127.0.0.1:$(OBS_PORT) -cr 0.2 -cfm 0.8 -cfs 0.2 & \
	pid=$$!; \
	trap 'kill $$pid 2>/dev/null' EXIT; \
	./bin/obslint -url http://127.0.0.1:$(OBS_PORT)/metrics -timeout 15s \
	  -require unit_queries_total,unit_query_latency_seconds,unit_query_stage_seconds,unit_build_info,unit_usm_window,unit_usm,unit_admission_cflex,unit_queue_length,unit_lbc_decisions_total,unit_lbc_actions_total \
	  -probe http://127.0.0.1:$(OBS_PORT)/debug/slow,http://127.0.0.1:$(OBS_PORT)/debug/trace

# Repository benchmark smoke (bench/, declared by BENCHMARK.json): every
# workload for 2 s untraced then traced, with the per-run correctness
# checks on, then the bench module's own vet and tests — it is a separate
# Go module, so the root ./... patterns never reach it and an API change
# that breaks it would otherwise go unseen.
bench-e2e-smoke:
	bash bench/run.sh -smoke && (cd bench && $(GO) vet ./... && $(GO) test ./...)

# CPU and allocation profiles of the UNIT engine run
# (BenchmarkEngineRun/UNIT: profiles/cpu.pprof, profiles/mem.pprof) and
# of the QMF one (profiles/cpu-qmf.pprof, profiles/mem-qmf.pprof), in
# profiles/ (the CI artifact). -o keeps the test binary, which pprof
# needs for symbols, in profiles/ too rather than in the tree. Read them with
# `go tool pprof -top profiles/engine.test profiles/cpu.pprof`; add
# -sample_index=alloc_objects for the heap objects bench/ counts.
profile-sim:
	mkdir -p profiles
	$(GO) test -run '^$$' -bench '^BenchmarkEngineRun$$/^UNIT$$' -benchtime 3s \
	  -cpuprofile profiles/cpu.pprof -memprofile profiles/mem.pprof -o profiles/engine.test ./internal/engine/
	$(GO) test -run '^$$' -bench '^BenchmarkEngineRun$$/^QMF$$' -benchtime 3s \
	  -cpuprofile profiles/cpu-qmf.pprof -memprofile profiles/mem-qmf.pprof -o profiles/engine.test ./internal/engine/

# CPU and allocation profiles of the live HTTP path (BenchmarkHTTPMix:
# loopback, one keep-alive connection, zero-work queries with every
# 16th call an update, as in the http-closed workload) beside the
# simulator's, with the server test binary for symbols, and a CPU
# profile of the admission walk the server runs under its lock
# (BenchmarkAdmitOrdered: profiles/admit-cpu.pprof, binary
# profiles/admission.test), and allocation and mutex-contention profiles
# of the direct query path at overload-open's shape
# (BenchmarkQueryOverload: profiles/overload-{mem,mutex}.pprof). Read
# them with `go tool pprof -top profiles/server.test profiles/live-cpu.pprof`.
profile-live:
	mkdir -p profiles
	$(GO) test -run '^$$' -bench '^BenchmarkHTTPMix$$' -benchtime 3s \
	  -cpuprofile profiles/live-cpu.pprof -memprofile profiles/live-mem.pprof -o profiles/server.test ./internal/server/
	$(GO) test -run '^$$' -bench '^BenchmarkAdmitOrdered$$' -benchtime 0.5s \
	  -cpuprofile profiles/admit-cpu.pprof -o profiles/admission.test ./internal/core/admission/
	$(GO) test -run '^$$' -bench '^BenchmarkQueryOverload$$' -benchtime 8000x \
	  -memprofile profiles/overload-mem.pprof -mutexprofile profiles/overload-mutex.pprof \
	  -o profiles/server.test ./internal/server/

# Replication pin: the QuickConfig experiment suite must reproduce the
# checked-in golden JSON byte-for-byte, sequentially and in parallel,
# under -race as CI runs it.
golden:
	$(GO) test -race -run TestGoldenQuickReplication -v ./internal/experiments/

# Bit-identity digest of the simulator's replay surfaces: unitsim's
# quick-scale stdout and trace for IMU/ODU/QMF/UNIT x seeds 1, 7 x
# shards 1, 4 x unif/neg, then every deterministic scenario's report and
# trace at -shards 1 and 4 (thundering-herd runs a live server on the
# wall clock, so it has no stable digest). One sha256sum line per
# output, named relative to REPLAY_DIR: run it in two checkouts and
# diff the listings to show a change leaves every replay untouched.
REPLAY_DIR ?= replay
replay-digest:
	@mkdir -p $(REPLAY_DIR) && rm -f $(REPLAY_DIR)/sim-* $(REPLAY_DIR)/scenario-*
	@$(GO) build -o $(REPLAY_DIR)/unitsim ./cmd/unitsim
	@$(GO) build -o $(REPLAY_DIR)/unitscenario ./cmd/unitscenario
	@cd $(REPLAY_DIR) && \
	for p in IMU ODU QMF UNIT; do for s in 1 7; do for n in 1 4; do for d in unif neg; do \
	  c=sim-$$p-seed$$s-shards$$n-$$d; \
	  ./unitsim -quick -policy $$p -seed $$s -shards $$n -dist $$d -trace $$c.jsonl > $$c.txt || exit 1; \
	done; done; done; done; \
	for n in 1 4; do for sc in $$(./unitscenario list | awk '$$2 == "deterministic" { print $$1 }'); do \
	  c=scenario-$$sc-shards$$n; \
	  ./unitscenario run -seed 1 -shards $$n -trace $$c.jsonl $$sc > $$c.json || exit 1; \
	done; done; \
	sha256sum sim-* scenario-*

# Mutant catalogue: every record in testdata/mutants.txt is applied
# through go test -overlay (the tree is never edited) and must be killed
# by the test it names; a survivor, or a record whose original text is
# gone, fails the target. MUTANTS=<regexp> runs only matching ids.
mutants:
	bash scripts/mutants.sh testdata/mutants.txt

# Size of the root module: non-blank Go lines of tracked files outside
# bench/ (a module of its own), split into non-test and test.
loc:
	@git ls-files -z '*.go' ':!bench' | xargs -0 awk 'NF { if (FILENAME ~ /_test\.go$$/) t++; else n++ } END { printf "non-test %d\ntest %d\ntotal %d\n", n, t, n + t }'

# Everything CI runs, in CI's order (the shard matrix runs inside test).
ci: build lint test race golden chaos scenarios replay-digest profile-sim profile-live fuzz obs-smoke bench-e2e-smoke
