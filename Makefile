# Convenience entry points; CI runs the same commands (see
# .github/workflows/ci.yml).  `make check` runs the test, lint, phaselint,
# typecheck and sanitize jobs' commands, the solo and fleet chaos
# scenario benches of the chaos and fleet jobs, and the perf job's
# perfbench steps.  It leaves out the chaos job's impairment sweep, the
# fleet job's 1k-session gate, the bench gates of the store, learn and
# obs jobs and the perf job's streaming throughput bench, so a green
# `make check` does not yet mean a green pipeline.
PYTHON ?= python

.PHONY: test lint phaselint sanitize chaos typecheck perfbench check

test:
	PYTHONPATH=src $(PYTHON) -m pytest -x -q

phaselint:
	PYTHONPATH=tools $(PYTHON) -m phaselint src tests benchmarks

# Run-twice byte-reproducibility check over the solo and fleet chaos
# scenarios CI checks (see docs/static_analysis.md, "Determinism model").
sanitize:
	PYTHONPATH=src $(PYTHON) -m repro.cli sanitize --scenario source-crash
	PYTHONPATH=src $(PYTHON) -m repro.cli sanitize --scenario shard-crash
	PYTHONPATH=src $(PYTHON) -m repro.cli sanitize --scenario learned-degradation-burst --seed 2
	PYTHONPATH=src $(PYTHON) -m repro.cli sanitize --scenario record-crash-resume

# Every shipped chaos scenario through its driver, with the recovery and
# event-signature checks (the chaos and fleet jobs' scenario benches).
chaos:
	PYTHONPATH=src $(PYTHON) -m pytest benchmarks/test_service_chaos.py benchmarks/test_fleet_chaos.py -q

# The perf job's perfbench steps: the harness's own tests plus a one-second
# smoke run of each workload (digest and correctness checks, no timing gate)
# and one traced run, which fails if an entry point the span tracer wraps
# was renamed or removed.  The fleet-400hz run is the one whose engine hops
# take the compressed median, the rank-bounded outlier test and the
# grid-only denoise; the 20 Hz hops take the plain filter.
perfbench:
	$(PYTHON) -m pytest perfbench/tests -q
	$(PYTHON) perfbench/run.py --workload fleet-record-20hz --seed 0 --seconds 1 --trace 0
	$(PYTHON) perfbench/run.py --workload fleet-400hz --seed 0 --seconds 1 --trace 0
	$(PYTHON) perfbench/run.py --workload solo-lossy --seed 0 --seconds 1 --trace 0
	$(PYTHON) perfbench/run.py --workload fleet-record-20hz --seed 0 --seconds 1 --trace 1

lint: phaselint
	ruff check src/ tests/ benchmarks/ examples/

typecheck:
	mypy

check: lint typecheck test sanitize chaos perfbench
