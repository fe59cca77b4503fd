"""Shared fixtures for the benchmark suite.

Benchmarks default to the ``smoke`` scale so ``pytest benchmarks/
--benchmark-only`` finishes in minutes; set ``REPRO_BENCH_SCALE=repro`` to
regenerate the paper's tables at the full reproduction scale (tens of
minutes on a laptop CPU).  Set ``REPRO_BENCH_BACKEND=process`` to shard
the training sweeps over a process pool (identical trajectories, lower
wall-clock on multi-core machines).

The trained suites are session-cached: the table benchmark times the
training sweep itself, while the figure benchmarks time their artifact
generation from the shared results.
"""

import os

import pytest

from repro.experiments import (
    annular_ring_config, ar_methods, ldc_config, ldc_methods, run_suite,
)


def bench_scale():
    """Scale preset for benchmark runs (env: REPRO_BENCH_SCALE)."""
    return os.environ.get("REPRO_BENCH_SCALE", "smoke")


def bench_backend():
    """Execution backend for benchmark runs (env: REPRO_BENCH_BACKEND)."""
    return os.environ.get("REPRO_BENCH_BACKEND", "serial")


@pytest.fixture(scope="session")
def ldc_suite_results():
    """Train the Table-1 methods once per session."""
    config = ldc_config(bench_scale())
    return config, run_suite("ldc", ldc_methods(config), config=config,
                             backend=bench_backend())


@pytest.fixture(scope="session")
def ar_suite_results():
    """Train the Table-2 (+ Figure-3) methods once per session."""
    config = annular_ring_config(bench_scale())
    return config, run_suite("annular_ring",
                             ar_methods(config, include_plain_sgm=True),
                             config=config, backend=bench_backend())
