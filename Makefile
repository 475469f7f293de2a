# Convenience entry points; CI runs the same commands (see
# .github/workflows/ci.yml).  `make check` runs the test, lint, phaselint,
# typecheck and sanitize jobs' commands and the perf job's perfbench steps.
# It leaves out the bench gates of the chaos, fleet, store, learn and obs
# jobs and the perf job's streaming throughput bench, so a green
# `make check` does not yet mean a green pipeline.
PYTHON ?= python

.PHONY: test lint phaselint sanitize typecheck perfbench check

test:
	PYTHONPATH=src $(PYTHON) -m pytest -x -q

phaselint:
	PYTHONPATH=tools $(PYTHON) -m phaselint src tests benchmarks

# Run-twice byte-reproducibility check over the solo and fleet chaos
# scenarios CI checks (see docs/static_analysis.md, "Determinism model").
sanitize:
	PYTHONPATH=src $(PYTHON) -m repro.cli sanitize --mode solo --scenario source-crash
	PYTHONPATH=src $(PYTHON) -m repro.cli sanitize --mode fleet --scenario shard-crash
	PYTHONPATH=src $(PYTHON) -m repro.cli sanitize --mode solo --scenario learned-degradation-burst --seed 2
	PYTHONPATH=src $(PYTHON) -m repro.cli sanitize --mode fleet --scenario record-crash-resume

# The perf job's perfbench steps: the harness's own tests plus a one-second
# smoke run of each workload (digest and correctness checks, no timing gate).
perfbench:
	$(PYTHON) -m pytest perfbench/tests -q
	$(PYTHON) perfbench/run.py --workload fleet-record-20hz --seed 0 --seconds 1 --trace 0
	$(PYTHON) perfbench/run.py --workload fleet-400hz --seed 0 --seconds 1 --trace 0
	$(PYTHON) perfbench/run.py --workload solo-lossy --seed 0 --seconds 1 --trace 0

lint: phaselint
	ruff check src/ tests/ benchmarks/ examples/

typecheck:
	mypy

check: lint typecheck test sanitize perfbench
