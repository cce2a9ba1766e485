PYTHON ?= python
export PYTHONPATH := src$(if $(PYTHONPATH),:$(PYTHONPATH))

.PHONY: test test-steps bench-runtime bench-ir bench-exec \
	bench-selftest serve-smoke fuzz-smoke fuzz-exec-smoke \
	fuzz-analyze-smoke fuzz-runtime-smoke fuzz-runtime \
	fuzz-runtime-parent fuzz-ir-parent coverage reach \
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
	$(PYTHON) -m pytest -x -q benchmarks/bench_runtime_engine.py
	@echo "results recorded in benchmarks/out/runtime_engine.json"

# Worklist rewriter vs. the full-sweep oracle (apply_patterns_sweep) on
# a >=2,000-op module.
bench-ir:
	$(PYTHON) -m pytest -x -q benchmarks/bench_ir_canonicalize.py
	@echo "results recorded in benchmarks/out/ir_canonicalize.json"

# Compiled affine executor vs. the interpreter on the Fig. 3 kernel
# (bit-identical, >= 50x faster, HLS FLOP cross-check) and the fused vs.
# unfused chain kernel (medians apart by more than either IQR).
bench-exec:
	$(PYTHON) -m pytest -x -q benchmarks/bench_affine_exec.py
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

# A quick executor fuzz campaign (the full 200-seed runs are in tier-1
# tests; `python tools/irfuzz.py --count N` goes deeper).  Then the
# compile dump (`--dump PATH`: the IR after every
# stage, the HLS reports and the generated numpy and C sources of Fig. 3,
# the benchmark's corpus shapes and the fuzz kernels) twice: the two
# files must be byte-identical, as must the dumps of a change and its
# parent commit (`make fuzz-ir-parent`).
fuzz-smoke:
	$(PYTHON) tools/irfuzz.py --mode exec --count 20 --quiet
	@dir=$$(mktemp -d) && trap 'rm -rf "$$dir"' EXIT && \
	$(PYTHON) tools/irfuzz.py --count 20 --dump $$dir/a.txt && \
	$(PYTHON) tools/irfuzz.py --count 20 --dump $$dir/b.txt && \
	cmp $$dir/a.txt $$dir/b.txt && \
	echo "irfuzz --dump: two runs byte-identical"

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

# Same compile output as REV: `git archive` exports REV (default HEAD;
# REV=HEAD~ once the change is committed) into a temp dir, and the work
# tree's tools/irfuzz.py dumps 40 fuzz seeds (plus Fig. 3 and the corpus)
# once against the work tree's src and once against REV's; the two files
# must be byte-identical.  The dump code is the work tree's in both runs,
# so only the compiler differs.  Not part of `make test`.
fuzz-ir-parent:
	@dir=$$(mktemp -d) && trap 'rm -rf "$$dir"' EXIT && \
	mkdir "$$dir/rev" && git archive "$(REV)" | tar -x -C "$$dir/rev" && \
	$(PYTHON) tools/irfuzz.py --count 40 --dump "$$dir/tree.txt" && \
	PYTHONPATH="$$dir/rev/src" $(PYTHON) tools/irfuzz.py --count 40 \
		--dump "$$dir/rev.txt" && \
	cmp "$$dir/tree.txt" "$$dir/rev.txt" && \
	echo "irfuzz --dump: work tree and $(REV) byte-identical"

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

# Which defs of src/repro an entry point (examples, basecamp calls, an
# in-process daemon; a benchmark is not one) reaches, which only tier-1
# reaches and which nothing reaches, in def-lines per package; fails on
# an unreached def that tools/reach.py's allowlist does not give a reason
# for.  Both phases run under a tracer, a few minutes in all, so it is
# not part of `make test`.
reach:
	$(PYTHON) tools/reach.py

# Every script under examples/ has to run to completion: they call the
# public API the way the docs show it, and nothing else would notice one
# of them break.
examples:
	@for script in examples/*.py; do \
		echo "$(PYTHON) $$script"; \
		$(PYTHON) $$script || exit 1; \
	done
