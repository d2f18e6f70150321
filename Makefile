# Convenience targets for the repro repository.

PYTHON ?= python
# Python with the in-tree package importable (src layout, nothing installed).
PYSRC = PYTHONPATH=src $(PYTHON)

.DEFAULT_GOAL := help

FUZZ_SEEDS ?= 50
FUZZ_PROFILE ?= default
FUZZ_ARGS ?=
# bench-e2e-claim: the parent commit's checkout, and where the run sets go.
PARENT ?=
CLAIM_OUT ?= .bench-e2e-claim

.PHONY: help test fuzz fuzz-smoke experiments bench-e2e bench-e2e-smoke \
	bench-e2e-selftest bench-e2e-claim examples shell serve loc all

help:
	@echo "repro targets:"
	@echo "  make test             run the test suite"
	@echo "  make fuzz             differential fuzz run (FUZZ_SEEDS, FUZZ_PROFILE)"
	@echo "  make fuzz-smoke       bounded fuzz smoke for CI (~60s, fixed seeds)"
	@echo "  make experiments      the paper's E1-E15 as deterministic page-IO / plan-count tables -> benchmarks/results/experiments.txt (~5s)"
	@echo "  make bench-e2e        end-to-end benchmark (BENCHMARK.json): 4 workloads, every metric, ~3 min"
	@echo "  make bench-e2e-smoke  end-to-end benchmark, tiny, answers checked (~25s)"
	@echo "  make bench-e2e-selftest the end-to-end benchmark checking itself (<60s)"
	@echo "  make bench-e2e-claim PARENT=<checkout>  10 alternating pairs vs the parent + verdict table, default and held-out seed (~70 min)"
	@echo "  make examples         run the example scripts"
	@echo "  make shell            interactive SQL shell with demo data"
	@echo "  make serve            line-protocol server on demo data"
	@echo "  make loc              Python line counts: src/repro, each subpackage, tests, benchmarks"

test:
	$(PYSRC) -m pytest tests/

fuzz:
	$(PYSRC) -m repro fuzz --seeds $(FUZZ_SEEDS) \
		--profile $(FUZZ_PROFILE) --report FUZZ_report.json $(FUZZ_ARGS)

fuzz-smoke:
	$(PYSRC) -m repro fuzz --seeds 30 --profile smoke \
		--duration 60 --quiet --report FUZZ_report.json

experiments:
	$(PYTHON) benchmarks/experiments.py

bench-e2e:
	$(PYTHON) benchmarks/e2e/run.py

bench-e2e-smoke:
	$(PYTHON) benchmarks/e2e/run.py --smoke

bench-e2e-selftest:
	$(PYTHON) benchmarks/e2e/run.py selftest

# What a PR that claims a gain runs: set A is this tree, set B the
# parent's checkout (git clone, not a worktree), so `compare B A` reads
# parent -> change. `aa` exits 1 whenever the two trees differ by more
# than a bound, which a claimed gain does; the verdicts are compare's.
# Both seeds are measured and both verdict tables printed before the
# target fails on a `regressed` row in either.
bench-e2e-claim:
	@test -n "$(PARENT)" || { echo "usage: make bench-e2e-claim PARENT=<checkout of the parent commit>"; exit 2; }
	-$(PYTHON) benchmarks/e2e/run.py aa --runs 10 --other $(PARENT) --out $(CLAIM_OUT)/default
	-$(PYTHON) benchmarks/e2e/run.py aa --runs 10 --seed 19960325 --other $(PARENT) --out $(CLAIM_OUT)/held-out
	@status=0; \
	for seed in default held-out; do \
		echo "== $$seed seed: parent -> change"; \
		$(PYTHON) benchmarks/e2e/run.py compare $(CLAIM_OUT)/$$seed/B.json $(CLAIM_OUT)/$$seed/A.json || status=1; \
	done; \
	exit $$status

examples:
	$(PYSRC) examples/quickstart.py
	$(PYSRC) examples/crossover_study.py
	$(PYSRC) examples/decision_support.py
	$(PYSRC) examples/nested_subqueries.py
	$(PYSRC) examples/transformations_walkthrough.py

shell:
	$(PYSRC) -m repro --demo

serve:
	$(PYSRC) -m repro serve --demo

# Lines of Python per tree, as `find <dir> -name '*.py' | xargs cat | wc -l`.
loc:
	@for dir in src/repro $$(dirname src/repro/*/__init__.py) tests benchmarks; do \
		printf '%7d  %s\n' $$(find $$dir -name '*.py' | xargs cat | wc -l) $$dir; \
	done

all: test experiments
