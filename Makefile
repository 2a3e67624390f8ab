# Tier-1 verification in one command: `make ci` chains the build, the
# full test suite, the four examples, the format check, Table 1's
# per-bug trajectory rows, the vm, long-trace and warm-start bench
# gates, the section 5.3 offline-overhead gate, the Fig. 5
# falling-solver-work gate, the Fig. 6 ER-below-rr gate, the section
# 5.4 case-study gate, the fleet-determinism gate and the trajectory
# check of the newest committed BENCH_N.json against the one before it.

.PHONY: all build test examples fmt ci fleet fleet-determinism bench-vm \
	bench-fleet bench-table1 bench-long-trace bench-warm bench-offline \
	bench-fig5 bench-fig6 bench-casestudy bench-diff

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
	$(MAKE) bench-table1
	$(MAKE) bench-vm
	$(MAKE) bench-long-trace
	$(MAKE) bench-warm
	$(MAKE) bench-offline
	$(MAKE) bench-fig5
	$(MAKE) bench-fig6
	$(MAKE) bench-casestudy
	$(MAKE) fleet-determinism
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

# Every `-o FILE` below writes the job's section of a trajectory and
# checks it against the newest committed BENCH_N.json (the rows of
# bench/trajectory.ml), failing on a regression that names its section.

# Table 1 reconstructed bug by bug: each bug's exact rows (occurrences,
# runs, solver cost and the other deterministic counters) must equal
# the committed trajectory's.  A change that moves solver cost between
# bugs, or one bug's occurrences, fails here even when the totals hold.
bench-table1:
	dune exec bench/main.exe -- table1 -o /tmp/er_bench_table1.json

# Block-fused threaded-dispatch engine vs reference interpreter on the
# Table 1 perf workloads.  The check compares speedup ratios, not raw
# instr/sec, so it holds across machines: each is the median of
# per-sample ratios over interleaved samples, and below 4x, or >10%
# under the committed trajectory's recorded speedup, fails.  The job
# also times ER's production run (recording hooks under the plan a
# reconstruction of each bug selects) and fails above 1.4x the
# untraced time.
bench-vm:
	dune exec bench/main.exe -- vm -o /tmp/er_bench_vm.json

# The long-trace workload family: the incremental tracer must beat
# from-scratch tracing end-to-end by at least 1.5x (the job self-gates),
# with identical reconstruction results between the two modes and
# checkpoint counters identical to the committed trajectory's.
bench-long-trace:
	dune exec bench/main.exe -- longtrace -o /tmp/er_bench_longtrace.json

# The warm-start gate: a cold fleet pass records every solver answer
# into per-job journals under ER_BENCH_CACHE_DIR, a warm pass replays
# them.  The job self-gates: warm total solver_cost strictly below
# cold and per-bug trajectories byte-identical between the passes; the
# check adds a warm cost no higher than the committed one's.
bench-warm:
	ER_BENCH_CACHE_DIR=$(ER_BENCH_CACHE_DIR) \
		dune exec bench/main.exe -- warm -o /tmp/er_bench_warm.json

# Section 5.3's shape: Table 1's summed selection time must stay within
# 10% of its summed symex time (the job self-gates and prints both
# totals and their ratio).  The same job gates Table 1's SMT allocation
# at 100 minor words per bit-blast gate.
bench-offline:
	dune exec bench/main.exe -- offline

# Fig. 5's claim as a gate: php-74194 shepherded with the budgets off,
# first with no recorded data, then with the data values the 1st and
# 2nd pipeline rounds select.  Every round must reach the failure, the
# later two on at least one recorded point each, and the total solver
# work must fall strictly from round to round (the job exits 1 naming
# the round that breaks it).
bench-fig5:
	dune exec bench/main.exe -- fig5

# Fig. 6's claim as a gate: ER's production run, under the recording
# plan a reconstruction of each bug selects, must cost less than rr's
# record on every Table 1 program (the job exits 1 naming the programs
# where it does not).
bench-fig6:
	dune exec bench/main.exe -- fig6

# Section 5.4's case study as a gate: for coreutils-od and coreutils-pr,
# the top root-cause candidate from the ER-reconstructed execution must
# equal both the original failing input's and the expected root cause
# (the job exits 1 naming any bug where it does not).
bench-casestudy:
	dune exec bench/main.exe -- casestudy

# The newest committed trajectory checked against the one before it:
# deterministic counters (solver cost, per-bug work, checkpoint
# counters) must be identical, ratios stay within their
# bounds, wall clocks print as informational deltas.  A regression
# names its section before the nonzero exit.
bench-diff:
	dune exec bench/main.exe -- diff

# Record the next trajectory, BENCH_<newest + 1>.json: full corpus +
# overheads + the sequential-vs-parallel fleet trials + the vm engine
# comparison + the long-trace incremental-tracing family + the
# cold-vs-warm persistent-store trial, checked against the newest.
bench-fleet:
	n=$$(ls BENCH_*.json | sed 's/[^0-9]//g' | sort -n | tail -1); \
	dune exec bench/main.exe -- table1 fig6 fleet vm longtrace warm \
		-o BENCH_$$((n + 1)).json
