# Convenience targets; everything honors PYTHONPATH=src (no install step).

PY ?= python
export PYTHONPATH := src

.PHONY: check test trace-smoke analyze-smoke e14-smoke e2e-gate experiments torture

# The default gate, in order: unit tests; the traced-run smoke
# (schema-valid JSONL, hub/device and trace/hub accounting identities,
# clean online monitors); the trace-analytics smoke over that trace; the
# multi-client contention smoke; and the e2ebench gate.  Every gate is
# deterministic, so an unchanged tree passes on any host, and all output
# lands in git-ignored paths.
check: test trace-smoke analyze-smoke e14-smoke e2e-gate

test:
	$(PY) -m pytest -x -q

# Tiny traced run: validates the JSONL trace against its schema, the
# Chrome export, the MetricsHub-vs-device accounting identity, the
# trace-derived counters against the MetricsHub's, and zero violations
# from all four stock online invariant monitors.
trace-smoke:
	$(PY) -m repro trace-smoke

# Trace analytics over the smoke trace: the analyze report must render
# and a trace diffed against itself must flag nothing (exit 1 if not).
analyze-smoke:
	$(PY) -m repro analyze benchmarks/out/trace_smoke.jsonl > /dev/null
	$(PY) -m repro trace-diff benchmarks/out/trace_smoke.jsonl \
		benchmarks/out/trace_smoke.jsonl --threshold 0 --check

# Quick 2-client contention run through the scheduler: every
# stock online monitor attached, non-zero exit on any violation.
e14-smoke:
	$(PY) -m repro experiments E14 -j 2 \
		--trace benchmarks/out/e14_smoke.jsonl --monitors > /dev/null

# The three BENCHMARK.json workloads through e2ebench/run.py (~20 s):
# fingerprints at seeds 0 and 1 and the work counts per record at seed
# 0 must equal benchmarks/e2e_gate.json exactly.  Host wall time is not
# gated; README "Performance" has the parent/change comparison.
e2e-gate:
	$(PY) benchmarks/e2e_gate.py

# Regenerate every experiment table (quick mode) as
# benchmarks/out/<ID>.txt from `repro experiments` output.
experiments:
	for id in $$($(PY) -c 'from repro.analysis.experiments import ALL_EXPERIMENTS; print(*ALL_EXPERIMENTS)'); do \
		out=$$($(PY) -m repro experiments $$id) || exit 1; \
		printf '%s\n' "$$out" > benchmarks/out/$$id.txt; \
	done

torture:
	$(PY) -m repro torture --quick
