# Convenience targets for the XSPCL reproduction.

PYTHON ?= python

.PHONY: install test test-fast test-faults fuzz bench bench-e2e-quick figures examples lint clean

install:
	pip install -e . || $(PYTHON) setup.py develop

test:
	$(PYTHON) -m pytest tests/

test-fast:
	$(PYTHON) -m pytest tests/ -x -q --ignore=tests/test_calibration.py

# Fault-injection suite plus a CLI smoke: crash a worker mid-run and
# require full recovery (docs/fault-tolerance.md).
test-faults:
	$(PYTHON) -m pytest tests/hinch/test_faults.py -q
	PYTHONPATH=src $(PYTHON) -m repro run examples/specs/pip1.xml \
		--backend process --workers 2 --inject-fault kill:1

# Bounded differential fuzz (docs/fuzzing.md): replay the committed
# shrunk regression cases, then run a fixed-seed campaign.  Failures
# land in fuzz-failures/ as minimal cases with exact replay lines.
# Override: make fuzz FUZZ_SEED=100 FUZZ_CASES=200
FUZZ_SEED ?= 0
FUZZ_CASES ?= 25

fuzz:
	for case in tests/fuzz/case-*.json; do \
		PYTHONPATH=src $(PYTHON) -m repro fuzz --replay $$case || exit 1; \
	done
	PYTHONPATH=src $(PYTHON) -m repro fuzz --seed $(FUZZ_SEED) \
		--cases $(FUZZ_CASES) --out fuzz-failures -v

lint:
	@if command -v ruff >/dev/null 2>&1; then \
		ruff check src tests; \
	else \
		echo "ruff not installed; skipping style lint"; \
	fi
	PYTHONPATH=src $(PYTHON) -m repro lint examples/specs/*.xml --fail-on error

# The paper-figure, ablation and prediction wrappers (EXPERIMENTS.md);
# they rewrite the tracked benchmarks/out/*.txt.  How fast the code
# itself runs is benchmarks/e2e's job (docs/performance.md).
bench:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only

# The repo benchmark's quick pass (benchmarks/e2e/README.md, ~30 s): the
# 12-frame output-digest oracle on all four runtime configurations of
# every workload, plus shm/process hygiene.  Prints QUICK PASS.
bench-e2e-quick:
	$(PYTHON) benchmarks/e2e/run.py --quick

figures:
	$(PYTHON) -m repro figures all

examples:
	for ex in examples/*.py; do echo "== $$ex"; $(PYTHON) $$ex || exit 1; done

clean:
	rm -rf .pytest_cache benchmarks/e2e/out .benchmarks .hypothesis \
		fuzz-failures build *.egg-info
	find . -name __pycache__ -type d -exec rm -rf {} +
