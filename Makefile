# Convenience targets for the repro library.

PYTHON ?= python

# linted exactly like CI (.github/workflows/ci.yml runs `make lint`)
LINT_PATHS ?= src/ tests/ benchmarks/
# text for local runs; CI passes LINT_FORMAT=github for inline annotations
LINT_FORMAT ?= text
BENCH_JSON ?= bench.json
# end-to-end benchmark: runs per workload and the results file
E2E_REPEAT ?= 5
E2E_OUT ?= benchmarks/e2e/results/latest.json
# sampled configurations per verification relation
VERIFY_CONFIGS ?= 50
VERIFY_REPORT ?= benchmarks/results/verify_campaign.json
# streaming soak: wall-clock budget, backend, site count, metrics artifact
SOAK_SECONDS ?= 60
SOAK_EXECUTOR ?= thread:2
SOAK_SITES ?= 1
SOAK_REPORT ?= benchmarks/results/streaming_soak.json

.PHONY: install test lint verify soak bench bench-json bench-check bench-profile bench-e2e bench-e2e-compare examples all clean

install:
	$(PYTHON) -m pip install -e . || $(PYTHON) setup.py develop

test:
	$(PYTHON) -m pytest tests/

lint:
	PYTHONPATH=src $(PYTHON) -m repro.analysis $(LINT_PATHS) \
		--format $(LINT_FORMAT)

# metamorphic relation campaign (fixed master seed) + golden drift check;
# exits non-zero on any violated relation or corpus drift
verify:
	PYTHONPATH=src $(PYTHON) -m repro verify \
		--configs $(VERIFY_CONFIGS) --report $(VERIFY_REPORT)

# fixed-seed streaming soak (CI's `soak` job): exits non-zero on an
# unhealthy stream, a streamed-vs-offline bit mismatch, or -- under the
# runtime lock-order sanitizer -- an inverted lock-acquisition order
soak:
	PYTHONPATH=src $(PYTHON) -m repro soak \
		--seconds $(SOAK_SECONDS) --executor $(SOAK_EXECUTOR) \
		--sites $(SOAK_SITES) \
		--sanitize-locks --output $(SOAK_REPORT)

bench:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only

bench-json:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only --benchmark-disable-gc \
		--benchmark-json=$(BENCH_JSON)

# re-run the gated benchmarks and fail if a normalized capture-time
# ratio (compiled/per-device, batched/per-device, streamed/offline)
# regressed >20% vs the committed baseline
bench-check:
	$(PYTHON) benchmarks/check_capture_regression.py

# re-run the capture hot-path benchmark and print the per-stage wall
# times of the compiled whole-lot program as a markdown table
bench-profile:
	PYTHONPATH=src $(PYTHON) -m pytest \
		benchmarks/test_bench_capture_hotpath.py --benchmark-only -q
	@$(PYTHON) benchmarks/profile_stages.py

# the paper's workloads end to end (GA search, production lot, stream),
# each run in its own subprocess; see benchmarks/e2e/README.md
bench-e2e:
	$(PYTHON) benchmarks/e2e/run.py --repeat $(E2E_REPEAT) --out $(E2E_OUT)

# per-metric, per-workload comparison of two bench-e2e results files:
# make bench-e2e-compare A=parent.json B=change.json
bench-e2e-compare:
	$(PYTHON) benchmarks/e2e/compare.py $(A) $(B)

examples:
	@for f in examples/*.py; do \
		echo "=== $$f"; \
		PYTHONPATH=src $(PYTHON) $$f || exit 1; \
	done

all: lint test bench

clean:
	rm -rf .pytest_cache .hypothesis build *.egg-info src/*.egg-info
	find . -name __pycache__ -type d -exec rm -rf {} +
