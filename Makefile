PYTHON ?= python
export PYTHONPATH := src$(if $(PYTHONPATH),:$(PYTHONPATH))

.PHONY: test test-steps bench-smoke bench-runtime bench-ir bench-exec \
	bench-selftest serve-smoke fuzz-smoke fuzz-exec-smoke \
	fuzz-analyze-smoke fuzz-runtime-smoke fuzz-runtime \
	fuzz-runtime-parent coverage \
	docs-check examples lint all

all: test docs-check

# The steps run between two `git status --porcelain` snapshots (skipped
# outside a git checkout): one that rewrites a tracked file or leaves an
# unignored one behind fails the target, while uncommitted edits made
# before the run are in both snapshots and do not.
test:
	@before=$$(git status --porcelain 2>/dev/null); \
	$(MAKE) test-steps || exit 1; \
	after=$$(git status --porcelain 2>/dev/null); \
	if [ "$$before" != "$$after" ]; then \
		echo "make test changed the work tree:"; \
		echo "--- before"; echo "$$before"; \
		echo "--- after"; echo "$$after"; exit 1; \
	fi

test-steps: lint
	$(PYTHON) -m pytest -x -q tests
	$(MAKE) fuzz-smoke
	$(MAKE) fuzz-exec-smoke
	$(MAKE) fuzz-analyze-smoke
	$(MAKE) fuzz-runtime-smoke
	$(MAKE) bench-ir
	$(MAKE) bench-exec
	$(MAKE) bench-runtime
	$(MAKE) serve-smoke
	$(MAKE) bench-selftest
	$(MAKE) examples

# bench_*.py does not match pytest's default file glob; list explicitly.
bench-smoke:
	$(PYTHON) -m pytest -x -q --benchmark-disable benchmarks/bench_*.py

# `python3 -m bench` is the repository's benchmark (latency, call
# counts, memory, the per-layer table).  The three targets below are
# differential checks against the oracles in tools/oracles.py: results
# identical, production path faster by a stated factor; their medians
# and quartiles go to benchmarks/out/ (git-ignored).

# Event-sweep timeline index vs. ScanTimeline and incremental HEFT vs.
# ScanHEFT.  The scale test runs at a reduced size by default, asserting
# a wall-clock budget so scaling regressions fail loudly;
# BENCH_SCALE_FULL=1 re-runs the headline 100k-task / 1,000-node
# measurement (about half an hour, most of it the baseline scan).
bench-runtime:
	$(PYTHON) -m pytest -x -q --benchmark-disable \
		benchmarks/bench_runtime_engine.py \
		benchmarks/bench_claim_runtime_scheduler.py
	@echo "results recorded in benchmarks/out/runtime_engine.json"

# Worklist rewriter vs. the full-sweep oracle (apply_patterns_sweep) on
# a >=2,000-op module.
bench-ir:
	$(PYTHON) -m pytest -x -q --benchmark-disable \
		benchmarks/bench_ir_canonicalize.py
	@echo "results recorded in benchmarks/out/ir_canonicalize.json"

# Compiled affine executor vs. the interpreter on the Fig. 3 kernel
# (bit-identical, >= 50x faster, HLS FLOP cross-check) and the fused vs.
# unfused chain kernel (medians apart by more than either IQR).
bench-exec:
	$(PYTHON) -m pytest -x -q --benchmark-disable \
		benchmarks/bench_affine_exec.py
	@echo "results recorded in benchmarks/out/affine_exec.json"

# The bench/ package's own tests (not collected by tier-1): a rename
# that breaks what `python3 -m bench` imports or patches fails here,
# locally, rather than in the benchmark run.
bench-selftest:
	$(PYTHON) -m pytest -q bench/tests

# End-to-end daemon smoke through the real CLI entry point: boot
# `basecamp serve` as a subprocess, fire concurrent clients, assert the
# shared-cache hit rate and a clean SIGINT shutdown.
serve-smoke:
	$(PYTHON) tools/serve_smoke.py

# A quick fuzz campaign in both modes (the full 200-seed runs are in
# tier-1 tests; `python tools/irfuzz.py --count N [--mode exec]` goes
# deeper).
fuzz-smoke:
	$(PYTHON) tools/irfuzz.py --count 20 --quiet
	$(PYTHON) tools/irfuzz.py --mode exec --count 20 --quiet

# The executor differential fuzzer against every registered backend
# (the 200-seed-per-backend campaigns are `python tools/irfuzz.py
# --mode exec --count 200 --backend <name>`).  Forced tiling of the
# small fuzz kernels is a tier-1 test
# (tests/test_backends.py::TestParallel::test_forced_tiling_is_bitwise_on_fuzz_kernels).
fuzz-exec-smoke:
	$(PYTHON) tools/irfuzz.py --mode exec --count 15 --backend compiled \
		--quiet
	$(PYTHON) tools/irfuzz.py --mode exec --count 15 \
		--backend compiled-parallel --quiet
	$(PYTHON) tools/irfuzz.py --mode exec --count 15 --backend cbackend \
		--quiet
	$(PYTHON) tools/irfuzz.py --mode exec --count 15 \
		--backend compiled-arena --quiet

# The abstract-interpretation cross-checker: typed verification of every
# lowering stage plus inferred-vs-executed shape/dtype agreement (the
# 200-seed tier runs inside `pytest tests`; `python tools/irfuzz.py
# --mode analyze --count N` goes deeper).
fuzz-analyze-smoke:
	$(PYTHON) tools/irfuzz.py --mode analyze --count 20 --quiet

# Runtime-engine workload fuzzing: random DAGs + streamed arrivals +
# failure injection through every policy, checked against the scheduler
# invariant suite (the 200-seed tier runs inside `pytest tests`;
# `make fuzz-runtime` goes deeper).  Then the schedule dump
# (`--dump PATH`: every placement of the benchmark's workflows and the
# fuzz cases under every policy) twice: the two files must be
# byte-identical, as must the dumps of a change and its parent commit
# (`make fuzz-runtime-parent`).
fuzz-runtime-smoke:
	$(PYTHON) tools/workloadfuzz.py --count 60 --quiet
	@dir=$$(mktemp -d) && trap 'rm -rf "$$dir"' EXIT && \
	$(PYTHON) tools/workloadfuzz.py --count 20 --dump $$dir/a.json && \
	$(PYTHON) tools/workloadfuzz.py --count 20 --dump $$dir/b.json && \
	cmp $$dir/a.json $$dir/b.json && \
	echo "workloadfuzz --dump: two runs byte-identical"

fuzz-runtime:
	$(PYTHON) tools/workloadfuzz.py --count 1000

# Same schedules as REV: `git archive` exports REV (default HEAD, the
# base of uncommitted edits; REV=HEAD~ once the change is committed) into
# a temp dir, the work tree and the export each dump the 120-seed
# campaign, and the two files must be byte-identical.  Not part of
# `make test`.
REV ?= HEAD
fuzz-runtime-parent:
	@dir=$$(mktemp -d) && trap 'rm -rf "$$dir"' EXIT && \
	mkdir "$$dir/rev" && git archive "$(REV)" | tar -x -C "$$dir/rev" && \
	$(PYTHON) tools/workloadfuzz.py --count 120 --dump "$$dir/tree.json" && \
	(cd "$$dir/rev" && PYTHONPATH=src $(PYTHON) tools/workloadfuzz.py \
		--count 120 --dump "$$dir/rev.json") && \
	cmp "$$dir/tree.json" "$$dir/rev.json" && \
	echo "workloadfuzz --dump: work tree and $(REV) byte-identical"

# Line coverage over the package; tolerates a container without
# pytest-cov (prints a hint), but a real test failure still fails the
# target.
coverage:
	@if $(PYTHON) -c "import pytest_cov" 2>/dev/null; then \
		$(PYTHON) -m pytest -q tests --cov=repro --cov-report=term; \
	else \
		echo "coverage: pytest-cov unavailable (pip install pytest-cov)"; \
	fi

# Ruff is non-blocking: warnings are reported but never fail the build,
# and a missing ruff is tolerated (the container may not ship it).  The
# mypy gate on the analysis, arena planner and nest plan modules and the
# telemetry package IS blocking when mypy is available: those files stay
# fully annotated and clean.
lint:
	-@$(PYTHON) -m ruff check src tests benchmarks tools examples \
		2>/dev/null || echo "lint: ruff unavailable or reported" \
		"warnings (non-blocking)"
	@if $(PYTHON) -c "import mypy" 2>/dev/null; then \
		$(PYTHON) -m mypy --follow-imports=silent \
			--ignore-missing-imports --strict-equality \
			src/repro/ir/analysis.py src/repro/tensorpipe/arena.py \
			src/repro/tensorpipe/nestplan.py \
			src/repro/telemetry/trace.py \
			src/repro/telemetry/metrics.py \
			src/repro/telemetry/export.py \
			src/repro/telemetry/log.py \
			src/repro/telemetry/__init__.py; \
	else \
		echo "lint: mypy unavailable (gate skipped)"; \
	fi

docs-check:
	$(PYTHON) tools/check_docs.py

# Every script under examples/ has to run to completion: they call the
# public API the way the docs show it, and nothing else would notice one
# of them break.
examples:
	@for script in examples/*.py; do \
		echo "$(PYTHON) $$script"; \
		$(PYTHON) $$script || exit 1; \
	done
