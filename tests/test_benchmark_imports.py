"""Every benchmark module imports, and every method perfbench times exists.

``benchmarks/`` is collected only when a file is named, so a benchmark
that imports a deleted API would otherwise fail only in the benchmark
stages of ``scripts/verify.sh``.  This imports each
``benchmarks/bench_*.py`` (a new file joins automatically) and runs none
of them.  perfbench's traced runs wrap each timed method by name, looked
up in its class body, so deleting or moving one (``BatchBuilder.add_array``,
say) would otherwise fail only the benchmark smoke and the traced runs:
installing and uninstalling the layer clock checks every target.
"""

import importlib
from pathlib import Path

import pytest

BENCHMARKS = Path(__file__).resolve().parent.parent / "benchmarks"


@pytest.mark.parametrize("module", sorted(p.stem for p in BENCHMARKS.glob("bench_*.py")))
def test_benchmark_module_imports(module):
    importlib.import_module(f"benchmarks.{module}")


def test_perfbench_layer_targets_exist():
    layers = importlib.import_module("perfbench.layers")
    targets = [target for group in layers.LAYERS.values() for target in group]

    def bodies():
        return [
            getattr(importlib.import_module(module), cls).__dict__.get(attr)
            for module, cls, attr in targets
        ]

    before = bodies()
    clock = layers.LayerClock()
    try:
        clock.install()
        assert all(now is not then for now, then in zip(bodies(), before))
    finally:
        clock.uninstall()
    assert all(now is then for now, then in zip(bodies(), before))
