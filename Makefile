# Developer/CI entry points.
#
#   make check            tier-1: fast tests + property suites, fixed hypothesis
#                         profile (what CI runs on every push)
#   make check-slow       the slow stress tier (50+ concurrent queries,
#                         cross-query stealing at scale; also the nightly job)
#   make check-full       everything: tier-1, slow tier, benchmark smoke
#   make lint             ruff check (whole tree) + ruff format --check on
#                         scripts/ and src/repro/api/ — identical to the CI
#                         lint job
#   make identity         every "nothing moved" claim (figure tables, shipped
#                         examples, record -> replay, ledger sim_digest +
#                         sim.events, parallel == sequential) against
#                         baselines/identity.txt; a declared model change
#                         re-baselines with `python scripts/identity.py --update`
#   make bench-smoke      one pass of the workload + kernel benchmarks
#   make bench-kernel     kernel events/sec only (writes BENCH_kernel.json)
#   make bench-macro      sequential vs parallel class sweep (writes
#                         BENCH_macro_charge.json)
#   make bench-trace-replay  100k-query trace replay (writes
#                         BENCH_trace_replay.json; TRACE_REPLAY_QUERIES
#                         overrides the trace length — nightly runs 1M)
#   make bench-overload   overload goodput sweep, including the
#                         graceful-degradation acceptance gate (writes
#                         BENCH_overload.json; OVERLOAD_QUERIES overrides
#                         the per-cell query count)
#   make bench-regression regenerate the kernel/replay/overload benches
#                         and fail on a >25% events/s drop vs the
#                         committed BENCH_*.json baselines
#   make profile WORKLOAD=replay_tiny
#                         cProfile one warm repetition of a ledger workload
#                         and print the top rows with their share of the
#                         total (TOP=40, SORT=cumulative|tottime), then
#                         the cyclic-garbage census of one more repetition
#   make experiments      regenerate EXPERIMENTS.md (quick settings)

PYTHON ?= python
export PYTHONPATH := src$(if $(PYTHONPATH),:$(PYTHONPATH),)

.PHONY: check check-slow check-full lint identity bench-smoke \
	bench-kernel bench-macro bench-trace-replay bench-overload \
	bench-regression profile experiments

check:
	HYPOTHESIS_PROFILE=ci $(PYTHON) -m pytest -q

check-slow:
	HYPOTHESIS_PROFILE=ci $(PYTHON) -m pytest -q -m slow tests/test_serving_stress.py

check-full: check check-slow bench-smoke

lint:
	ruff check .
	ruff format --check scripts src/repro/api

identity:
	$(PYTHON) scripts/identity.py

bench-smoke:
	cd benchmarks && PYTHONPATH=../src $(PYTHON) -m pytest -q bench_workload.py bench_kernel.py

bench-kernel:
	cd benchmarks && PYTHONPATH=../src $(PYTHON) -m pytest -q bench_kernel.py

bench-macro:
	cd benchmarks && PYTHONPATH=../src $(PYTHON) -m pytest -q bench_macro_charge.py

bench-trace-replay:
	cd benchmarks && PYTHONPATH=../src $(PYTHON) -m pytest -q -s bench_trace_replay.py

bench-overload:
	cd benchmarks && PYTHONPATH=../src $(PYTHON) -m pytest -q -s bench_overload.py

# The baselines are the *committed* BENCH_*.json files (git show), not
# the working-tree copies: the bench targets regenerate the working-tree
# files, so copying those would compare two back-to-back runs and catch
# nothing.  A bench JSON not yet at HEAD yields an empty baseline, which
# the gate skips with a note.
bench-regression:
	git show HEAD:benchmarks/BENCH_kernel.json > /tmp/BENCH_kernel.baseline.json
	git show HEAD:benchmarks/BENCH_trace_replay.json > /tmp/BENCH_trace_replay.baseline.json 2>/dev/null || true
	git show HEAD:benchmarks/BENCH_overload.json > /tmp/BENCH_overload.baseline.json 2>/dev/null || true
	$(MAKE) bench-kernel
	$(MAKE) bench-trace-replay
	$(MAKE) bench-overload
	$(PYTHON) scripts/check_bench_regression.py \
		--pair /tmp/BENCH_kernel.baseline.json benchmarks/BENCH_kernel.json \
		--pair /tmp/BENCH_trace_replay.baseline.json benchmarks/BENCH_trace_replay.json \
		--pair /tmp/BENCH_overload.baseline.json benchmarks/BENCH_overload.json

WORKLOAD ?= replay_tiny
TOP ?= 40
SORT ?= cumulative

profile:
	$(PYTHON) scripts/profile_workload.py $(WORKLOAD) --top $(TOP) --sort $(SORT)

experiments:
	$(PYTHON) -m repro.experiments.runner --quick
