# Tier-1 verification gate. `make verify` is what CI and every PR must
# keep green: a full build, go vet, a gofmt cleanliness check, the complete
# test suite, and a short-mode pass under the race detector (the transports
# are concurrent by construction; chantransport runs every rank as a
# goroutine and tcptransport adds reader goroutines per connection, so the
# race detector is part of the gate, not an extra).

GO ?= go

.PHONY: verify build vet fmtcheck test race chaos guidelines calibrate bench benchall perfbench sweep hiersweep

verify: build vet fmtcheck test race chaos guidelines-short

vet:
	$(GO) vet ./...

fmtcheck:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race -short ./...

# chaos runs the fault-injection suites — seeded faultnet schedules,
# fail-stop propagation across all transports and completion modes, the
# TCP healing path, and the recovery suites (typed abort attribution,
# Agree/Shrink including fail-stop during agreement, the kill → shrink →
# keep-computing soak, and TCP rank rejoin) — under the race detector.
chaos:
	$(GO) test -race -short -count=1 \
		-run 'TestChaos|TestFailStop|TestAbortPoisons|TestSendFailure|TestZeroBudget|TestDisarmed|TestReconnect|TestCollectiveThroughReconnect|TestDeadPeer|TestBrokenThenClosed|TestRecovery|TestShrink|TestRejoin' \
		. ./internal/core ./internal/faultnet ./internal/tcptransport

# guidelines-short is the verify-time slice of the performance-guidelines
# gate: the simnet sweep only (deterministic virtual time; the wall-clock
# chan sweep skips itself under -short).
.PHONY: guidelines-short
guidelines-short:
	$(GO) test -short -count=1 -run 'TestGuidelines' ./internal/harness

# guidelines runs the full Hunold-style invariant sweep (composition
# dominance, length/rank monotonicity, auto-envelope) on simnet and chan
# and exits non-zero on any violation.
guidelines:
	$(GO) run ./cmd/guidelines

# calibrate probes the chan transport and writes a reusable machine
# profile; load it with icc.WithProfile or planexplore -profile.
calibrate:
	$(GO) run ./cmd/calibrate -transport chan -p 8 -o profile.json

# bench runs the plan-amortization benchmarks (persistent versus one-shot
# all-reduce, plan-cache lookup), the hierarchical detour-pool allocs/op
# benchmark, the calibrated-versus-default planner benchmark on live
# transports, the recovery benchmarks (full fail-stop → Agree → Shrink
# cycle and post-shrink all-reduce steady state), one large-vector tcp
# training step (the byte path's allocs/op), and the simulated
# flat / 2-level / 3-level comparison at 64 and 256 ranks, recording
# everything in BENCH_10.json via cmd/benchjson and gating against the
# prior BENCH_9.json report.
bench:
	( $(GO) test -run XXX -bench 'PersistentAllReduce|OneShotAllReduce|PlanCache|HierCollectDeep|CalibratedPlanner|Shrink|TCPLargeStep' \
		-benchmem -count=1 . ; \
	  $(GO) test -run XXX -bench TreeCollective -benchtime 1x -count=1 ./internal/harness ) \
		| $(GO) run ./cmd/benchjson -o BENCH_10.json -compare BENCH_9.json

# benchall touches every benchmark once (a smoke pass, not a measurement).
benchall:
	$(GO) test -run XXX -bench . -benchtime 1x ./...

# perfbench runs the repository benchmark (perfbench/README.md): every
# workload end to end for 20 s at seed 1, printing the end-to-end metrics.
# `bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace 1`
# prints the per-layer ledger instead.
perfbench:
	bash perfbench/run.sh --workload all --seed 1 --seconds 20 --trace 0

sweep:
	$(GO) run ./cmd/sweep

hiersweep:
	$(GO) run ./cmd/hiersweep
