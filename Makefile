# Tier-1 verification in one command: `make ci` chains the build, the
# full test suite, the four examples, the format check, the one-bug
# bench smoke, the serve-daemon smoke, the section 5.3 offline-overhead
# gate, the Fig. 6 ER-below-rr gate, the fleet-determinism gate and the
# persisted-trajectory validation.

.PHONY: all build test examples fmt ci fleet fleet-determinism bench-smoke \
	bench-vm bench-fleet bench-long-trace bench-serve bench-warm \
	bench-offline bench-fig6 bench-diff

# Where the warm-start trial persists its solver stores; CI points this
# at a workspace path so the journals upload as artifacts.
ER_BENCH_CACHE_DIR ?= /tmp/er_bench_cache

all: build

build:
	dune build

test:
	dune runtest

# Run the four examples: each exits 1 unless its reconstruction
# reproduces the failure and verifies.
examples:
	for e in quickstart sql_reconstruction failure_localization \
		concurrency_uaf; do \
		dune exec examples/$$e.exe || exit 1; \
	done

# Format check.  Local dev soft-skips when ocamlformat is not on PATH;
# CI sets FMT_STRICT=1, which turns a missing ocamlformat into a hard
# failure instead of a silent pass.
fmt:
	@if command -v ocamlformat >/dev/null 2>&1; then \
		dune build @fmt; \
	elif [ -n "$(FMT_STRICT)" ]; then \
		echo "FMT_STRICT set but ocamlformat is not installed" >&2; \
		exit 1; \
	else \
		echo "ocamlformat not installed — skipping 'dune build @fmt'"; \
	fi

ci:
	dune build
	dune runtest
	$(MAKE) examples
	$(MAKE) fmt
	$(MAKE) bench-smoke
	$(MAKE) bench-vm
	$(MAKE) bench-long-trace
	$(MAKE) bench-serve
	$(MAKE) bench-warm
	$(MAKE) bench-offline
	$(MAKE) bench-fig6
	$(MAKE) fleet-determinism
	dune exec bench/main.exe -- --validate BENCH_11.json --baseline BENCH_10.json --baseline-exact
	$(MAKE) bench-diff

# Run the whole bug corpus through the staged pipeline on a domain pool.
fleet:
	dune exec bin/er_cli.exe -- fleet

# The determinism contract, as a gate: the normalized fleet report
# (per-bug iterations, solver costs, recorded values; wall clocks and
# worker placement stripped) must be byte-identical at -j 1 and -j 4.
fleet-determinism:
	dune exec bin/er_cli.exe -- fleet -j 1 --json --normalize > /tmp/er_fleet_j1.json
	dune exec bin/er_cli.exe -- fleet -j 4 --json --normalize > /tmp/er_fleet_j4.json
	cmp /tmp/er_fleet_j1.json /tmp/er_fleet_j4.json
	@echo "fleet-determinism: -j 1 and -j 4 normalized reports are byte-identical"

# One-bug end-to-end bench: pipeline + recording overhead, persisted
# trajectory written and re-parsed with the shared JSON reader.
bench-smoke:
	dune exec bench/main.exe -- smoke -o /tmp/er_bench_smoke.json

# Block-fused threaded-dispatch engine vs reference interpreter on the
# Table 1 perf workloads.  The gate compares speedup ratios, not raw
# instr/sec, so it holds across machines: below 4x, or >10% under the
# committed trajectory's recorded speedup, fails.  The job also times
# ER's production run (recording hooks under the plan a reconstruction
# of each bug selects) and fails above 1.4x the untraced time.
bench-vm:
	dune exec bench/main.exe -- vm -o /tmp/er_bench_vm.json --vm-baseline BENCH_11.json

# The long-trace workload family: the incremental tracer must beat
# from-scratch tracing end-to-end by at least 1.5x (the job self-gates),
# with identical reconstruction results between the two modes.
bench-long-trace:
	dune exec bench/main.exe -- longtrace -o /tmp/er_bench_longtrace.json

# The serve smoke: an in-process er-serve daemon under a 4-client
# loadgen replay of the corpus.  The job self-gates: every submit must
# resolve, no job may crash, and every client must receive the
# byte-identical normalized payload per bug.
bench-serve:
	dune exec bench/main.exe -- serve -o /tmp/er_bench_serve.json

# The warm-start gate: a cold fleet pass records every solver answer
# into per-job journals under ER_BENCH_CACHE_DIR, a warm pass replays
# them.  The job self-gates: warm total solver_cost strictly below
# cold, per-bug trajectories byte-identical between the passes, and
# the stall-time portfolio must resolve stalls on the throttled bug.
bench-warm:
	ER_BENCH_CACHE_DIR=$(ER_BENCH_CACHE_DIR) \
		dune exec bench/main.exe -- warm -o /tmp/er_bench_warm.json

# Section 5.3's shape: Table 1's summed selection time must stay within
# 10% of its summed symex time (the job self-gates and prints both
# totals and their ratio).  The same job gates Table 1's SMT allocation
# at 100 minor words per bit-blast gate.
bench-offline:
	dune exec bench/main.exe -- offline

# Fig. 6's claim as a gate: ER's production run, under the recording
# plan a reconstruction of each bug selects, must cost less than rr's
# record on every Table 1 program (the job exits 1 naming the programs
# where it does not).
bench-fig6:
	dune exec bench/main.exe -- fig6

# Trajectory delta between the two newest committed bench files: solver
# cost must be exactly identical (the counters are deterministic), vm
# speedup must not drop more than 10%; wall clocks render as
# informational deltas only.  A regression names its section before the
# nonzero exit.
bench-diff:
	dune exec bench/main.exe -- diff BENCH_10.json BENCH_11.json --exact

# Regenerate the committed trajectory: full corpus + overheads + the
# sequential-vs-parallel fleet trials + the vm engine comparison + the
# long-trace incremental-tracing family + the serve loadgen smoke + the
# cold-vs-warm persistent-store trial.
bench-fleet:
	dune exec bench/main.exe -- table1 fig6 fleet vm longtrace serve warm -o BENCH_11.json
