# reprolint: path=src/repro/algorithms/fixture_alg.py
"""NCC003 fixture: a self-registering algorithm module going through the
registry."""
from repro.registry import get_algorithm, register_algorithm


def run(runtime):
    return get_algorithm("mst").fn(runtime)


register_algorithm(
    name="fixture-alg",
    fn=run,
    kind="algorithm",
)
