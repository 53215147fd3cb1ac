.PHONY: build test check bench bench-smoke bench-compare chaos-smoke chaos-deep fmt-check perfbench-check

build:
	dune build

test:
	dune runtest

# The one-stop gate: compile everything, run the test suite, refresh
# the quick perf baseline and diff it against the previous one, sweep
# the fault-schedule explorer, and check that the repository benchmark
# is a pure function of its seed.
check: build test bench-smoke bench-compare chaos-smoke perfbench-check

# The repository benchmark (perfbench/, see perfbench/METRICS.md) run
# twice per workload with one seed and once with the next (~1 min): the
# virtual and allocation metrics must repeat exactly, and the latencies
# must move with the seed.
perfbench-check:
	python3 perfbench/determinism.py --seconds 1

# Bounded deterministic fault-injection sweep (~a second of wall
# clock): enumerates crash/partition/drop singles at every registered
# fault point for both commit protocols, then random pairs, and fails
# on any oracle violation or uncovered fault point.
chaos-smoke:
	dune exec bin/camelot_sim.exe -- chaos --budget 1200 --seed 42

# Deep coverage-guided fuzzing pass (~2 min): 100k schedules mutated
# from a persistent corpus under CHAOS_CORPUS (reused across runs, so
# later sessions start from everything earlier ones found). JOBS > 1
# splits the budget over that many parallel fuzzing domains sharing
# the corpus. Not part of `make check` — run it before
# protocol-touching changes land.
CHAOS_CORPUS ?= _chaos_corpus
JOBS ?= 1
chaos-deep:
	dune exec bin/camelot_sim.exe -- chaos --fuzz --budget 100000 --seed 42 \
		--corpus $(CHAOS_CORPUS) --jobs $(JOBS)

bench:
	dune exec bench/main.exe

# Fast CI-friendly pass: one-shot timings for every microbenchmark plus
# the Part-1 reproduction wall clock and the open-loop/shootout/domain-
# scaling sweep points, written as BENCH_7.json (BENCH_6.json is the
# committed previous-PR baseline it is compared against).
bench-smoke:
	dune exec bench/main.exe -- --quick --json BENCH_7.json

# Fail if any microbenchmark present in both baselines got more than
# 25% slower, any closed-loop throughput point more than 8% lower,
# than the previous baseline — or if a structural guard on the new
# baseline fails: recovery partition-scaling curve not decreasing,
# wheel timers not beating the heap at >=100k pending, the open-loop
# p99-vs-load series losing its saturation knee, Paxos-F=0 shootout
# throughput drifting more than 5% from 2PC's, or (on a >=4-core host)
# the 64-site engine-scaling curve not reaching 1.5x at 4 domains.
bench-compare:
	dune exec bench/compare.exe -- BENCH_6.json BENCH_7.json

# Formatting gate. The container may not ship ocamlformat; skip (with a
# note) rather than fail when the tool is absent.
fmt-check:
	@if command -v ocamlformat >/dev/null 2>&1; then \
		dune build @fmt; \
	else \
		echo "fmt-check: ocamlformat not installed; skipping"; \
	fi
