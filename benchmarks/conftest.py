"""Shared helpers for the benchmark harness.

Every benchmark regenerates one of the paper's figures/tables via the
corresponding :mod:`repro.experiments` driver, prints the reproduced rows
(the same rows/series the paper reports) and asserts the shape checks
of its experiment (README.md, Experiments table E1–E18), while
pytest-benchmark records the runtime.
Run with ``pytest benchmarks/ --benchmark-only``.

Setting ``REPRO_BENCH_SYNTHETIC_SLOWDOWN`` (e.g. ``2.0``) inflates the
wall time of every discrete-event run by that factor without touching
product code — the dry-run lever that proves the CI benchmark-regression
gate actually fails on a slowdown (see docs/cohort-engine.md).
"""

from __future__ import annotations

import os
import time

import pytest

from repro.analysis.reporting import format_table
from repro.netsim.simulator import BodyNetworkSimulator


@pytest.fixture(autouse=True)
def synthetic_slowdown(monkeypatch):
    """Optionally slow the DES hot path for benchmark-gate dry runs.

    Wraps ``BodyNetworkSimulator.run``, the single entry point of the
    batched kernel: the kernel merges its own streams with the event
    queue, so every discrete-event run passes through it.
    """
    factor = float(os.environ.get("REPRO_BENCH_SYNTHETIC_SLOWDOWN", "0") or 0.0)
    if factor > 1.0:
        real_run = BodyNetworkSimulator.run

        def slowed(self, *args, **kwargs):
            started = time.perf_counter()
            result = real_run(self, *args, **kwargs)
            time.sleep((factor - 1.0) * (time.perf_counter() - started))
            return result

        monkeypatch.setattr(BodyNetworkSimulator, "run", slowed)
    yield


def emit(title: str, rows: list[dict[str, object]],
         columns: list[str] | None = None) -> None:
    """Print a reproduced table under a banner (visible with ``-s``)."""
    print()
    print("=" * 78)
    print(format_table(rows, columns=columns, title=title))
    print("=" * 78)
