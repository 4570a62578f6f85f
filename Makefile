GO ?= go

.PHONY: all build test bench bench-go bench-smoke race vet pumi-vet vet-self sarif-smoke chaos chaos-recover san-smoke trace-smoke telemetry-smoke proto-gen proto-check conform-smoke plan-smoke check

all: build

build:
	$(GO) build ./...

# The plain (non-race) test lane also runs the allocation-regression
# tests pinning steady-state To/Exchange/decode at 0 allocs/op; they
# self-skip under -race and under the sanitizer.
test:
	$(GO) test -shuffle=on ./...

# Regenerate the committed machine-readable benchmark results
# (BENCH_pr9.json reflects the current tree; BENCH_baseline.json is the
# frozen pre-overhaul reference and BENCH_pr9_pre.json the frozen
# pre-plan reference — do not regenerate either). The /traced rows
# measure the same exchange with the flight recorder armed, the
# /conform rows the same workload under the online protocol monitor,
# and the sync/reduce rows the compiled boundary-exchange plans, so the
# file documents all three overheads (see DESIGN.md §10, §13 and §14).
bench:
	$(GO) run ./cmd/pumi-bench -json BENCH_pr10.json

# Go micro-benchmarks, benchstat-ready:
#   make bench-go | benchstat -
bench-go:
	$(GO) test -run '^$$' -bench=. -benchmem ./internal/pcu/

# One-iteration compile-and-run of every benchmark — catches bit-rotted
# benchmark code without paying for a measurement. Covers the root
# paper-experiment benchmarks, the tag store, fields, the mesh core,
# migration, pcu and the partitioners (~7 s).
bench-smoke:
	$(GO) test -run '^$$' -bench=. -benchtime=1x . ./internal/ds/ ./internal/field/ ./internal/mesh/ ./internal/partition/ ./internal/pcu/... ./internal/zpart/

race:
	$(GO) test -race ./internal/...

vet:
	$(GO) vet ./...

pumi-vet:
	$(GO) run ./cmd/pumi-vet ./...

# Self-hosting gate: all analyzers over the whole repo, tests included,
# against the committed baseline. Any finding not in the baseline fails;
# stale entries fail too, so the baseline can only shrink silently.
# Accept a new finding deliberately with:
#   go run ./cmd/pumi-vet -writebaseline internal/lint/selfbaseline.txt ./...
vet-self:
	$(GO) run ./cmd/pumi-vet -baseline internal/lint/selfbaseline.txt ./...

# SARIF smoke: emit SARIF over the analyzer fixtures (which are built to
# produce findings, hence the || true on the emitting run) and
# schema-check that the result is valid and non-empty.
sarif-smoke:
	$(GO) run ./cmd/pumi-vet -sarif internal/lint/testdata/src/... > /tmp/pumi-vet-smoke.sarif || true
	$(GO) run ./cmd/pumi-vet -checksarif /tmp/pumi-vet-smoke.sarif -nonempty

# Short race-enabled chaos soak at fixed seeds: balancing under fault
# injection must end cleanly or with a structured failure + checkpoint
# restart (see DESIGN.md §7).
chaos:
	$(GO) test -race -count=1 -run 'TestSoak' ./internal/chaos/

# Race-enabled self-healing soak: every FaultKind through the outcome
# matrix, plus seeded permanent rank-kills that must shrink the world,
# restore the last checkpoint, and finish Verify-green
# (see DESIGN.md §12).
chaos-recover:
	$(GO) test -race -count=1 -run 'TestFaultMatrix|TestRecoverable' ./internal/chaos/

# pumi-san smoke: the faulted balancing stack under the runtime
# sanitizer with the race detector on — collective schedules
# cross-checked at every sync point, mesh writes checked for ownership
# (see DESIGN.md §8).
san-smoke:
	$(GO) test -race -count=1 -run 'TestSoakSanitized|TestSanitized' ./internal/chaos/ ./internal/partition/

# Traced smoke: the hybrid exchange sweep (in-process worlds up to 32
# ranks) under pumi-san with the flight recorder armed, then both
# emitted files — Chrome timeline and metrics summary — schema-validated
# by pumi-trace (see DESIGN.md §10).
trace-smoke:
	$(GO) run ./cmd/pumi-bench -exp hybrid -san -trace /tmp/pumi-trace-smoke.json
	$(GO) run ./cmd/pumi-trace -validate /tmp/pumi-trace-smoke.json /tmp/pumi-trace-smoke.summary.json
	$(GO) run ./cmd/pumi-trace -critical /tmp/pumi-trace-smoke.json

# Telemetry smoke: the balancing stack runs metered with the live
# introspection endpoint up, rank 0 scrapes /metrics, /trace, /protocol
# and /healthz over real HTTP mid-run, and every document must validate
# against its schema (see DESIGN.md §15).
telemetry-smoke:
	$(GO) test -race -count=1 -run 'TestTelemetrySmoke|TestTelemetrySourcesLive' ./internal/chaos/ ./internal/pcu/

# Regenerate the committed protocol-automata artifact: the communication
# effect terms of the standard entry points compiled to minimal DFAs
# (pumi-proto/1 JSON, see DESIGN.md §13). Run after any change that
# moves a collective in parma.Balance, partition.Migrate, the meshio
# checkpoints, pcu.Agree, or chaos.RunRecoverable.
proto-gen:
	$(GO) run ./cmd/pumi-vet -emit-automata ./... > internal/lint/automata/golden/automata.json

# Build-time protocol gate: the committed artifact must match what the
# current sources compile to. Drift means a collective schedule changed
# without regenerating (make proto-gen) — review the diff, then commit.
proto-check:
	$(GO) run ./cmd/pumi-vet -emit-automata ./... > /tmp/pumi-proto-check.json
	diff -u internal/lint/automata/golden/automata.json /tmp/pumi-proto-check.json

# Conformance smoke: the race-enabled online+offline enforcement tests —
# a seeded rank-kill soak under the golden chaos.RunRecoverable machine
# with its trace replayed, and the pcu-level witness-matching checks.
conform-smoke:
	$(GO) test -race -count=1 -run 'TestConform' ./internal/pcu/ ./internal/chaos/

# Plan smoke: race-enabled recoverable soak over the plan-backed ParMA
# balance with the pcu sanitizer recording the op stream — two passes
# per seed must report identical recovery trajectories and identical
# op-sequence hashes (see DESIGN.md §14).
plan-smoke:
	$(GO) test -race -count=1 -run 'TestPlanSmoke' ./internal/chaos/

# The full local gate: what CI runs.
check: vet vet-self sarif-smoke proto-check build test race chaos chaos-recover san-smoke trace-smoke telemetry-smoke conform-smoke plan-smoke bench-smoke
