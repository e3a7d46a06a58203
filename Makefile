# Common developer targets for the repro package.

PYTHON ?= python

.PHONY: install test bench bench-sampling bench-smoke bench-kernel bench-approx bench-reorder bench-noise perfbench serve-smoke serve-net-smoke fuzz fuzz-smoke fuzz-self-check docs-check quick-table full-table figures shapes examples clean

install:
	PIP_NO_BUILD_ISOLATION=false pip install -e .

test: fuzz-smoke serve-smoke serve-net-smoke bench-kernel bench-approx bench-reorder bench-noise
	$(PYTHON) -m pytest tests/

# Kernel perf gate: the SoA vector kernel must cold-build qft_16 at
# least 3x faster than the python reference engine, with bit-identical
# samples at equal seed (see docs/architecture.md, hot path section).
bench-kernel:
	PYTHONPATH=src $(PYTHON) -m repro.perf.bench --gate kernel

# Approximation gate: under a hard node limit the exact dusty-GHZ build
# must abort mid-build while the epsilon=0.05 approximate build
# completes under the same limit, TVD inside its tracked fidelity
# bound, equal-seed rebuilds bit-identical (see docs/approximation.md).
bench-approx:
	PYTHONPATH=src $(PYTHON) -m repro.perf.bench --gate approx

# Noise gate: the noisy GHZ sampler must match the dense density
# reference within the TVD limit with bit-identical equal-seed
# rebuilds, and the ghz_20 depolarized build must abort cleanly at the
# node ceiling (see docs/noise.md).
bench-noise:
	PYTHONPATH=src $(PYTHON) -m repro.perf.bench --gate noise

# Reordering gate: sifting must shrink the crossing-pair circuit's peak
# DD by >= 1.5x, with equal-seed determinism, an exact permutation
# round-trip, and exact distributions (see docs/reordering.md).
bench-reorder:
	PYTHONPATH=src $(PYTHON) -m repro.perf.bench --gate reorder

# End-to-end serving gate: batch JSONL round trip on qft_16 + grover_8,
# cold pass builds + caches, warm pass must skip strong simulation and
# stay bit-identical to weak_sim (see docs/serving.md).
serve-smoke:
	PYTHONPATH=src $(PYTHON) -m repro.service --smoke

# Network-tier gate: a real HTTP server over a 2-worker sharded pool,
# 50 concurrent mixed clients, bit-identical samples, one build per
# unique circuit pool-wide, observed 429 shedding, clean drain
# (see docs/serving.md, HTTP API section).
serve-net-smoke:
	PYTHONPATH=src $(PYTHON) -m repro.service --net-smoke

# Seeded differential-fuzzing smoke: 200 circuits across all families
# and backend pairs, deterministic, finishes in a few minutes (the
# supremacy/reorder families dominate the cost).  Failures are
# minimised and saved to tests/corpus/ for triage.
fuzz-smoke:
	PYTHONPATH=src $(PYTHON) -m repro.fuzz --max-circuits 200 --seed 7

# Open-ended fuzzing session (10-minute budget, random-ish seed welcome:
# override with FUZZ_SEED=...).  See docs/fuzzing.md.
FUZZ_SEED ?= 0
fuzz:
	PYTHONPATH=src $(PYTHON) -m repro.fuzz --time-budget 600 --max-circuits 100000 --seed $(FUZZ_SEED)

# Mutation check: inject a known DD normalisation bug and assert the
# fuzzer catches it and minimises the reproducer to <= 8 instructions.
fuzz-self-check:
	PYTHONPATH=src $(PYTHON) -m repro.fuzz --self-check

bench:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only

# The in-tree harness, every section at full size: writes
# BENCH_sampling.json (minutes; the exact dusty_ghz_12 build dominates).
bench-sampling:
	PYTHONPATH=src $(PYTHON) -m repro.perf.bench --out BENCH_sampling.json

# The repo benchmark (BENCHMARK.json, perfbench/): serve_hot, serve_cold
# and serve_features over HTTP at 20 s each (about two minutes with
# set-up; not part of `make test`).
SEED ?= 1
perfbench:
	for workload in serve_hot serve_cold serve_features; do \
		$(PYTHON) perfbench/run.py --workload $$workload --seed $(SEED) \
			--seconds 20 || exit 1; \
	done

# Toy-size harness run + schema validation; fails on JSON-schema drift.
bench-smoke:
	PYTHONPATH=src $(PYTHON) -m repro.perf.bench --smoke --out BENCH_smoke.json
	PYTHONPATH=src $(PYTHON) -m repro.perf.bench --validate BENCH_smoke.json
	rm -f BENCH_smoke.json

# Docs gates: docstring coverage for every public definition, plus
# link/anchor/path/CLI-flag integrity across the markdown surface
# (both also run inside the test suite).
docs-check:
	$(PYTHON) tools/check_docstrings.py
	PYTHONPATH=src $(PYTHON) tools/check_docs.py

quick-table:
	$(PYTHON) -m repro.evaluation table1 --tier quick --shots 100000

full-table:
	$(PYTHON) -m repro.evaluation table1 --tier full --shots 1000000 --verify-agreement

figures:
	$(PYTHON) -m repro.evaluation figures

shapes:
	$(PYTHON) -m repro.evaluation shapes

examples:
	for f in examples/*.py; do echo "== $$f"; $(PYTHON) $$f || exit 1; done

clean:
	rm -rf build dist src/*.egg-info .pytest_cache .benchmarks
	find . -name __pycache__ -type d -exec rm -rf {} +
