"""Every benchmark module imports.

``benchmarks/`` is collected only when a file is named, so a benchmark
that imports a deleted API would otherwise fail only in the benchmark
stages of ``scripts/verify.sh``.  This imports each
``benchmarks/bench_*.py`` (a new file joins automatically) and runs none
of them.
"""

import importlib
from pathlib import Path

import pytest

BENCHMARKS = Path(__file__).resolve().parent.parent / "benchmarks"


@pytest.mark.parametrize("module", sorted(p.stem for p in BENCHMARKS.glob("bench_*.py")))
def test_benchmark_module_imports(module):
    importlib.import_module(f"benchmarks.{module}")
