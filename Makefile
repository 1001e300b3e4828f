PYTHON ?= python
export PYTHONPATH := src

.PHONY: test test-slow coverage lint lint-repro lint-ruff lint-mypy bench-smoke bench-shapes bench bench-store-smoke bench-store serve-smoke e2e-smoke

test:
	$(PYTHON) -m pytest -x -q

# The heavy chaos sweeps (@pytest.mark.slow) excluded from tier-1.
test-slow:
	$(PYTHON) -m pytest -x -q -m slow

# Coverage floor on the resilience layer and the crawler it protects.
# Gated on pytest-cov being installed (`pip install -e .[test]`) so the
# target degrades gracefully in minimal environments.
COV_FAIL_UNDER ?= 85
coverage:
	@if $(PYTHON) -c "import pytest_cov" 2>/dev/null; then \
		$(PYTHON) -m pytest -q \
			--cov=repro.resilience --cov=repro.crawler \
			--cov-report=term-missing --cov-fail-under=$(COV_FAIL_UNDER); \
	else \
		echo "pytest-cov not installed; skipping (pip install -e .[test])"; \
	fi

# Static analysis gate.  `lint-repro` (the in-tree RPL analyzer: the
# per-file rules plus the whole-program passes) always runs; ruff and
# mypy run when installed (`pip install -e .[lint]`) and are skipped
# with a notice otherwise, so the gate works in minimal environments
# without masking real failures.  Tests compare floats exactly and build
# Generators on purpose, hence the two codes ignored there.
lint: lint-repro lint-ruff lint-mypy

lint-repro:
	$(PYTHON) -m repro.devtools.lint src benchmarks examples
	$(PYTHON) -m repro.devtools.lint tests --ignore RPL031,RPL101
	@echo "repro lint: clean"

lint-ruff:
	@if $(PYTHON) -c "import ruff" 2>/dev/null; then \
		$(PYTHON) -m ruff check src; \
	else \
		echo "ruff not installed; skipping (pip install -e .[lint])"; \
	fi

lint-mypy:
	@if $(PYTHON) -c "import mypy" 2>/dev/null; then \
		$(PYTHON) -m mypy src/repro/stats src/repro/core; \
	else \
		echo "mypy not installed; skipping (pip install -e .[lint])"; \
	fi

# Quick perf regression check: small sizes, asserts the batched engine
# beats the legacy per-event path for all three models.
bench-smoke:
	$(PYTHON) -m pytest benchmarks/bench_perf_models.py -q -m bench_smoke -s

# Behaviour oracle for the engine, the store tick and the model fits:
# the shape benches that consume the workload models' event streams,
# those that read the simulated stores' crawls, and those that run the
# APP-CLUSTERING grid fits (Figures 8-10 and the forecast), must keep
# their EXPERIMENTS.md claims.  fig03, fig12 and the cache-policy
# ablation fail on main and stay out until fixed (ROADMAP item 8).
bench-shapes:
	$(PYTHON) -m pytest -q \
		benchmarks/bench_fig19_cache.py \
		benchmarks/bench_ablation_p.py \
		benchmarks/bench_ablation_cluster_sizes.py \
		benchmarks/bench_ablation_feedback.py \
		benchmarks/bench_ablation_analytical.py \
		benchmarks/bench_robustness.py \
		benchmarks/bench_fig08_model_fit.py \
		benchmarks/bench_fig09_model_distance.py \
		benchmarks/bench_fig10_user_sweep.py \
		benchmarks/bench_forecast.py \
		benchmarks/bench_table1_dataset.py \
		benchmarks/bench_fig02_pareto.py \
		benchmarks/bench_fig04_updates.py \
		benchmarks/bench_fig05_comments.py \
		benchmarks/bench_fig06_affinity_by_group.py \
		benchmarks/bench_fig07_affinity_cdf.py \
		benchmarks/bench_fig11_free_vs_paid.py \
		benchmarks/bench_fig13_income_cdf.py \
		benchmarks/bench_fig14_quality_vs_quantity.py \
		benchmarks/bench_fig15_revenue_by_category.py \
		benchmarks/bench_fig16_developer_strategies.py \
		benchmarks/bench_fig17_breakeven_time.py \
		benchmarks/bench_fig18_breakeven_category.py \
		benchmarks/bench_ablation_affinity_depth.py \
		benchmarks/bench_proxy_validation.py \
		benchmarks/bench_revenue_validation.py

# Full reference benchmark (60k apps, 100k users, 1M downloads); appends
# a record to BENCH_models.json.
bench:
	$(PYTHON) benchmarks/bench_perf_models.py

# Always-on service smoke: a bounded `repro serve` run must reproduce
# the batch campaign's dataset fingerprint byte for byte, with and
# without a fault plan, and both the data-plane and traffic-plane
# metrics sidecars must validate.
serve-smoke:
	$(PYTHON) -m repro serve --days 3 --clients 4 --seed 0 --verify-batch \
		--emit-metrics serve_data.metrics.jsonl \
		--emit-traffic serve_traffic.metrics.jsonl
	$(PYTHON) -m repro metrics serve_data.metrics.jsonl --check
	$(PYTHON) -m repro metrics serve_traffic.metrics.jsonl --check
	$(PYTHON) -m repro serve --days 3 --clients 4 --seed 0 --faults aggressive \
		--verify-batch

# The end-to-end benchmark's own command at smoke size: every workload,
# untraced and traced, must exit 0.  run.py exits 1 when a repeat raises
# or an output check fails, which is how a change that breaks an entry
# point the benchmark drives shows up.  Each run prints its summary line,
# or its whole output when it fails.
E2E_WORKLOADS = campaign-anzhi serve-1mobile report-slideme
e2e-smoke:
	@for workload in $(E2E_WORKLOADS); do \
		for trace in 0 1; do \
			echo "e2e smoke: $$workload --trace $$trace"; \
			out=$$($(PYTHON) benchmarks/e2e/run.py --workload $$workload --smoke \
				--seconds 1 --trace $$trace) || { echo "$$out"; exit 1; }; \
			echo "$$out" | tail -n 1 | cut -c 1-100; \
		done; \
	done

# Columnar store smoke: chunk-indexed day queries beat the flat-dict
# scan, and a cold subprocess reproduces the packed dataset's answers.
bench-store-smoke:
	$(PYTHON) -m pytest benchmarks/bench_store.py -q -m bench_smoke -s

# Paper-scale store benchmark (100k apps x 150 days day queries; 4-store
# packed dataset RSS probe); appends a record to BENCH_store.json.
bench-store:
	$(PYTHON) benchmarks/bench_store.py
