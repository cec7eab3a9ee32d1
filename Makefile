.PHONY: all build test lint lint-fast lint-json lint-sarif faults recover chaos serve aux joins bench bench-json bench-compare examples doc clean

all: build

build:
	dune build @all

test:
	dune runtest

# Repository-invariant static analysis (rules L1-L9, see DESIGN.md §11
# and §16). Fails on any error-severity finding not covered by an
# audited `(* lint: allow <rule> <reason> *)` pragma.
lint:
	dune exec bin/repro_lint.exe -- lib bin bench test perfbench

# Incremental pass over the files git reports changed vs HEAD; the
# module graph forces a full run whenever a changed interface or a
# referenced unit could shift cross-module verdicts elsewhere.
lint-fast:
	dune exec bin/repro_lint.exe -- --changed lib bin bench test perfbench

# Same pass, machine-readable report for CI artifacts.
lint-json:
	dune exec bin/repro_lint.exe -- --json lib bin bench test perfbench > LINT.json

# SARIF 2.1.0 interchange document (code-scanning upload format).
lint-sarif:
	dune exec bin/repro_lint.exe -- --sarif LINT.sarif lib bin bench test perfbench

# Seeded fault-schedule property suite only (transport + fault injection).
faults:
	dune exec test/test_main.exe -- test faults

# Warehouse crash-recovery suite only (WAL + checkpoint + restart).
recover:
	dune exec test/test_main.exe -- test recovery

# Composed chaos suite at full scale: 50 randomized Fault.chaos
# schedules per algorithm (heavy link faults, overlapping source
# crashes, a warehouse outage) with query deadlines and circuit
# breakers armed; checks progress, deterministic replay, consistency
# floors and post-heal convergence. `dune runtest` runs the same suite
# at 6 seeds.
chaos:
	CHAOS_SEEDS=50 dune exec test/test_main.exe -- test chaos

# Read-path serving suite at full scale: 25 seeded read storms per
# algorithm (flash-crowd bursts, admission control, staleness SLOs,
# session guarantees, degraded serving under an open breaker). `dune
# runtest` runs the same suite at 5 seeds.
serve:
	SERVE_SEEDS=25 dune exec test/test_main.exe -- test serving

# Self-maintenance differential suite at full depth: 100 seeds per
# algorithm (sweep, sweep-batched, nested-sweep, strobe) proving the
# auxiliary-projection path (DESIGN.md §14) produces bit-identical
# views, replays and verdicts versus --aux off, plus the random
# join-spec answerability property. `dune runtest` runs the same
# suite at 5 seeds.
aux:
	AUX_SEEDS=100 dune exec test/test_main.exe -- test aux

# Join-strategy differential suite at full depth: 100 seeds per
# algorithm proving pairwise and probe execution produce
# bit-identical views, replays and verdicts (including under crash and
# outage schedules), and that the default probe path never degrades to
# an unindexed scan. `dune runtest` runs the same suite at 5 seeds.
joins:
	JOIN_SEEDS=100 dune exec test/test_main.exe -- test join-strategies

# Regenerate every table and figure of the paper (see EXPERIMENTS.md).
bench:
	dune exec bench/main.exe

# Machine-readable benchmark document at reduced scale, then the CI
# perf gate: re-read BENCH.json and fail on any missing/malformed field.
bench-json:
	dune exec bench/main.exe -- micro --json-out BENCH.json --scale 0.2
	dune exec bin/bench_check.exe -- BENCH.json

# Like bench-json, but additionally compare against the most recent
# committed BENCH_<n>.json and fail on a >25% regression in
# messages-per-update, staleness p99 or read-staleness p99 (all
# deterministic per seed; wall-clock figures are never gated).
bench-compare:
	dune exec bench/main.exe -- micro --json-out BENCH.json --scale 0.2
	baseline=$$(ls BENCH_[0-9]*.json 2>/dev/null | sort -V | tail -1); \
	if [ -n "$$baseline" ]; then \
	  dune exec bin/bench_check.exe -- BENCH.json --against $$baseline; \
	else \
	  dune exec bin/bench_check.exe -- BENCH.json; \
	fi

examples:
	for e in quickstart figure5_walkthrough retail_warehouse \
	         concurrent_anomaly algorithm_comparison star_schema; do \
	  echo "== $$e =="; dune exec examples/$$e.exe; echo; done

clean:
	dune clean
