# Common developer targets.

.PHONY: install test bench validate experiments examples perf-pairs \
	digest-matrix loc

install:
	pip install -e . --no-build-isolation || python setup.py develop

test:
	PYTHONPATH=src python -m pytest tests/

bench:
	PYTHONPATH=src python -m pytest benchmarks/ --benchmark-only

validate:
	PYTHONPATH=src python -m repro validate

experiments:
	PYTHONPATH=src python tools/make_experiments.py

examples:
	for example in examples/*.py; do \
		PYTHONPATH=src python "$$example" || exit 1; \
	done

# Alternating benchmark pairs against a parent revision, e.g.
#   make perf-pairs PARENT=HEAD~1 PAIRS=10 WORKLOAD=mach_hits
PARENT ?= HEAD
PAIRS ?= 10
perf-pairs:
	python tools/perf_pairs.py $(PARENT) --pairs $(PAIRS) \
		$(foreach w,$(WORKLOAD),--workload $(w))

# Bit-identity of every matrix run against a parent revision, e.g.
#   make digest-matrix PARENT=HEAD~1
digest-matrix:
	python tools/digest_matrix.py $(PARENT)

# Python line counts of src/ and tests/, as reported in CHANGES.md.
loc:
	@echo "src   $$(git ls-files 'src/*.py' | xargs cat | wc -l)"
	@echo "tests $$(git ls-files 'tests/*.py' | xargs cat | wc -l)"
