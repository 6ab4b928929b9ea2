# Single place the test/lint invocations live; CI and ROADMAP.md call these
# targets instead of repeating the commands.

PYTEST := PYTHONPATH=src python -m pytest

.PHONY: test test-fast test-slow test-dynamic lint conformance-smoke bench-adaptive-smoke bench-kernels-smoke bench-multigpu-smoke bench-smoke bless perf-gate mem-report-smoke canary-smoke bless-canary bless-modeled perf-pair

test:  ## tier-1: the full suite (the ROADMAP verify command)
	$(PYTEST) -x -q

test-fast:  ## tier-1 minus the slow fuzz soaks and dynamic scaling tests
	$(PYTEST) -x -q -m "not slow and not dynamic"

test-slow:  ## only the @pytest.mark.slow fuzz soaks
	$(PYTEST) -q -m slow

test-dynamic:  ## only the @pytest.mark.dynamic large dynamic-graph tests
	$(PYTEST) -q -m dynamic

lint:
	ruff check src tests benchmarks examples

conformance-smoke:  ## fixed-seed differential fuzz pass, wall-clock capped
	PYTHONPATH=src python -m repro conformance --seed 0 --budget 150 \
		--max-seconds 60 --report conformance-report.jsonl
	PYTHONPATH=src python -m repro conformance --seed 1 --budget 60 \
		--max-seconds 30 --config 'adaptive*' \
		--report conformance-adaptive.jsonl
	PYTHONPATH=src python -m repro conformance --recipes edits --seed 0 \
		--budget 100 --max-seconds 60 --report conformance-edits.jsonl

bench-adaptive-smoke:  ## adaptive-dispatch bench on a tiny graph (CI artifact)
	BENCH_ADAPTIVE_SMOKE=1 $(PYTEST) -q benchmarks/bench_adaptive.py \
		--benchmark-disable

bench-kernels-smoke:  ## kernel-class sweep (direction + tensor-core) on a tiny graph
	BENCH_KERNELS_SMOKE=1 $(PYTEST) -q benchmarks/bench_kernels.py \
		--benchmark-disable

bench-multigpu-smoke:  ## cost-model vs round-robin multi-GPU scheduling on a tiny skewed graph
	BENCH_MULTIGPU_SMOKE=1 $(PYTEST) -q benchmarks/bench_multigpu.py \
		--benchmark-disable

bench-smoke:  ## the repository benchmark's own tests (tracer wrappers, seeds) on small inputs
	python -m pytest -q perfbench/test_perfbench.py

perf-gate:  ## run the adaptive smoke bench twice and fail on significant regressions
	BENCH_ADAPTIVE_SMOKE=1 $(PYTEST) -q benchmarks/bench_adaptive.py \
		--benchmark-disable
	cp BENCH_adaptive.json perf-gate-base.json
	BENCH_ADAPTIVE_SMOKE=1 $(PYTEST) -q benchmarks/bench_adaptive.py \
		--benchmark-disable
	PYTHONPATH=src python -m repro perf-diff perf-gate-base.json \
		BENCH_adaptive.json --report perf-gate-report.md
	# same verdict, gated against history: ingest the baseline artifact
	# into a ledger and diff the candidate against it
	rm -f perf-gate-ledger.jsonl
	PYTHONPATH=src python -m repro history --ledger perf-gate-ledger.jsonl \
		--ingest perf-gate-base.json
	PYTHONPATH=src python -m repro perf-diff \
		--baseline-ledger perf-gate-ledger.jsonl BENCH_adaptive.json

BASE ?= HEAD
WORKLOAD ?= deep-road
PAIRS ?= 6

perf-pair:  ## alternating base/change runs of one benchmark workload: make perf-pair BASE=<rev> WORKLOAD=<name> PAIRS=<k>
	python3 tools/perf_pair.py --base $(BASE) --workload $(WORKLOAD) --pairs $(PAIRS)

canary-smoke:  ## seconds-scale probe matrix: golden bit-identity + budget ceilings
	rm -f ledger.jsonl
	PYTHONPATH=src python -m repro canary --seed 0 --ledger ledger.jsonl \
		--report canary-report.md

bless-canary:  ## regenerate tests/golden/canary-budgets.json (review the diff)
	PYTHONPATH=src python -m repro canary --bless-budgets

mem-report-smoke:  ## allocation-profiler report on the mawi trace (CI artifact)
	PYTHONPATH=src python -m repro mem-report mawi_201512012345 \
		--sources 2 --out mem-report.md --json mem-report.json \
		--jsonl mem-report.jsonl

bless:  ## regenerate tests/golden/ from the Brandes oracle (review the diff)
	PYTHONPATH=src python -m repro conformance --bless

bless-modeled:  ## regenerate tests/modeled_snapshot.json, the exact modeled-number snapshot (review the diff)
	PYTHONPATH=src python -m tests.test_modeled_snapshot --bless
