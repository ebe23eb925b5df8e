"""Benchmark harness configuration.

Each benchmark regenerates one table or figure of the paper (see the
artifact map in README.md).  Runs are single-shot (``benchmark.pedantic``
with one round) because each one is a full search/training pipeline,
not a micro-kernel.  Set ``REPRO_FULL=1`` for paper-scale budgets.

The perf gates compare against the frozen reference builds in
``tests/oracles/``; ``tests/`` is appended to ``sys.path`` so they
import when this directory runs without ``tests/conftest.py``.
"""

import sys
from pathlib import Path

import pytest

from repro.experiments import ExperimentScale, search_transfer_topologies
from repro.utils.rng import set_seed

_TESTS_DIR = str(Path(__file__).resolve().parents[1] / "tests")
if _TESTS_DIR not in sys.path:
    sys.path.append(_TESTS_DIR)


@pytest.fixture(autouse=True)
def _seed():
    set_seed(2022)  # DAC'22
    yield


@pytest.fixture(scope="session")
def scale():
    return ExperimentScale.from_env()


@pytest.fixture(scope="session")
def transfer_topologies(scale):
    """ADEPT-a2/a4 16x16 topologies shared by Table 3 and Fig. 4."""
    return search_transfer_topologies(k=16, scale=scale)


def run_once(benchmark, fn, *args, **kwargs):
    """Run a pipeline exactly once under pytest-benchmark timing."""
    return benchmark.pedantic(fn, args=args, kwargs=kwargs, rounds=1, iterations=1)
