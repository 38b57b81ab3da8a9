# Common developer targets.

.PHONY: install test bench validate experiments examples

install:
	pip install -e . --no-build-isolation || python setup.py develop

test:
	PYTHONPATH=src python -m pytest tests/

bench:
	pytest benchmarks/ --benchmark-only

validate:
	python -m repro validate

experiments:
	python tools/make_experiments.py

examples:
	for example in examples/*.py; do \
		PYTHONPATH=src python "$$example" || exit 1; \
	done
