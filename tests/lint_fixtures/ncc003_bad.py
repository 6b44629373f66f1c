# reprolint: path=src/repro/algorithms/fixture_alg.py
"""NCC003 fixture: an algorithm module that never self-registers."""
from repro.registry import get_algorithm


def run(runtime):
    return get_algorithm("mst").run(runtime)
