# Developer/CI entry points.
#
#   make check            tier-1: fast tests + property suites, fixed hypothesis
#                         profile (what CI runs on every push)
#   make check-slow       the slow tier: every `slow`-marked test under tests/
#                         (50+ concurrent queries, the overload degradation
#                         contract, the workload sweep's DP-vs-FP orderings;
#                         also the nightly job)
#   make check-full       everything: tier-1 and the slow tier
#   make lint             ruff check (whole tree) + ruff format --check on
#                         scripts/ and src/repro/api/ — identical to the CI
#                         lint job
#   make identity         every "nothing moved" claim (figure tables, shipped
#                         examples, record -> replay, ledger sim_digest +
#                         sim.events, parallel == sequential) against
#                         baselines/identity.txt; a declared model change
#                         re-baselines with `python scripts/identity.py --update`
#   make profile WORKLOAD=replay_tiny
#                         cProfile the cold plan compilation and then one
#                         warm repetition of a ledger workload, printing
#                         each one's top rows with their share of its
#                         total (TOP=40, SORT=cumulative|tottime), the
#                         cold imports of set-up + one run by package
#                         (python -X importtime in a child), the
#                         cyclic-garbage census of one more repetition,
#                         then the top allocation sites at the traced
#                         peak of one more (tracemalloc) and the top
#                         gc-tracked types by count at that sample
#   make experiments      regenerate EXPERIMENTS.md (quick settings)

PYTHON ?= python
export PYTHONPATH := src$(if $(PYTHONPATH),:$(PYTHONPATH),)

.PHONY: check check-slow check-full lint identity profile experiments

check:
	HYPOTHESIS_PROFILE=ci $(PYTHON) -m pytest -q

check-slow:
	HYPOTHESIS_PROFILE=ci $(PYTHON) -m pytest -q -m slow

check-full: check check-slow

lint:
	ruff check .
	ruff format --check scripts src/repro/api

identity:
	$(PYTHON) scripts/identity.py

WORKLOAD ?= replay_tiny
TOP ?= 40
SORT ?= cumulative

profile:
	$(PYTHON) scripts/profile_workload.py $(WORKLOAD) --top $(TOP) --sort $(SORT)

experiments:
	$(PYTHON) -m repro.experiments.runner --quick
