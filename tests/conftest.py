"""Shared fixtures for the test-suite.

Conventions:

* ``strict_config`` is the default for protocol tests — any capacity or
  message-size violation fails the test immediately, certifying that the
  implementations stay inside the model at the configured constants.
* Graph fixtures are deterministic (fixed seeds) so failures reproduce.
* ``fast_config`` uses lightweight synchronization for tests that only
  check outputs, not message-level fidelity.

Engine replay
-------------
``pytest --engine=batched`` (or ``both``) replays the suite against the
batched round engine: an autouse fixture swaps the process-wide default
engine, which every config that leaves ``NCCConfig.engine`` unset picks up.
Because the engines are certified observably identical
(``tests/test_engine_parity.py``), every test must pass unchanged under
either engine.  Tests that genuinely depend on one implementation pin it
with ``@pytest.mark.engine("reference")`` / ``("batched")``; under a
mismatching ``--engine`` they are skipped rather than silently re-pointed.
"""

from __future__ import annotations

import pytest

import repro.config
from repro import Enforcement, NCCConfig, NCCRuntime
from repro.config import ENGINE_CHOICES, LAZY_ENGINES
from repro.graphs import generators, weights


def pytest_addoption(parser: pytest.Parser) -> None:
    parser.addoption(
        "--engine",
        action="store",
        default="reference",
        choices=[*ENGINE_CHOICES, *LAZY_ENGINES, "both"],
        help="round engine to replay the suite under "
             "(both = parametrize every test over the built-in engines)",
    )
    parser.addoption(
        "--tracing",
        action="store_true",
        default=False,
        help="replay the suite with a live telemetry tracer installed "
             "(certifies the instrumentation hooks never change behavior)",
    )


def pytest_configure(config: pytest.Config) -> None:
    config.addinivalue_line(
        "markers",
        "engine(name): pin a test to one round engine; skipped under a "
        "mismatching --engine run",
    )
    if config.getoption("--engine") == "both":
        # Parametrizing the autouse engine fixture gives class-based
        # Hypothesis tests one class instance per engine, which trips the
        # differing_executors health check.  The test classes here are
        # stateless namespaces, so the check is a false positive under
        # replay; suppress it for this mode only.
        try:
            from hypothesis import HealthCheck, settings
        except ImportError:  # pragma: no cover - hypothesis always present
            return
        settings.register_profile(
            "engine-both",
            suppress_health_check=[HealthCheck.differing_executors],
        )
        settings.load_profile("engine-both")


def pytest_generate_tests(metafunc: pytest.Metafunc) -> None:
    opt = metafunc.config.getoption("--engine")
    if opt == "reference":
        return  # default run: no parametrization, test ids unchanged
    if "_round_engine" in metafunc.fixturenames:
        modes = list(ENGINE_CHOICES) if opt == "both" else [opt]
        metafunc.parametrize(
            "_round_engine", modes, ids=[f"engine-{m}" for m in modes], indirect=True
        )


@pytest.fixture(autouse=True)
def _tracing_replay(request: pytest.FixtureRequest):
    """Under ``--tracing``, run every test with a fresh tracer installed.

    Tracing is observational by contract (ROADMAP: canonical output is a
    pure function of the spec); replaying the suite with the hooks live
    certifies no instrumented site leaks into behavior.
    """
    if not request.config.getoption("--tracing"):
        yield None
        return
    from repro.telemetry import Tracer, install_tracer, uninstall_tracer

    tracer = Tracer(label=request.node.name, scope="pytest")
    previous = install_tracer(tracer)
    try:
        yield tracer
    finally:
        uninstall_tracer(previous)


@pytest.fixture(autouse=True)
def _round_engine(request: pytest.FixtureRequest):
    """Route unset ``NCCConfig.engine`` fields to the engine under test."""
    mode = getattr(request, "param", None)
    marker = request.node.get_closest_marker("engine")
    if marker is not None:
        pinned = marker.args[0]
        if mode is not None and mode != pinned:
            pytest.skip(f"test pinned to round engine {pinned!r}")
        mode = pinned
    mode = mode or "reference"
    previous = repro.config.set_default_engine(mode)
    try:
        yield mode
    finally:
        repro.config.set_default_engine(previous)


@pytest.fixture
def strict_config() -> NCCConfig:
    return NCCConfig(seed=42, enforcement=Enforcement.STRICT)


@pytest.fixture
def count_config() -> NCCConfig:
    return NCCConfig(seed=42, enforcement=Enforcement.COUNT)


@pytest.fixture
def fast_config() -> NCCConfig:
    return NCCConfig(
        seed=42,
        enforcement=Enforcement.COUNT,
        extras={"lightweight_sync": True},
    )


@pytest.fixture
def rt16(strict_config) -> NCCRuntime:
    return NCCRuntime(16, strict_config)


@pytest.fixture
def rt20(strict_config) -> NCCRuntime:
    """Non-power-of-two size: exercises the partner-node paths."""
    return NCCRuntime(20, strict_config)


@pytest.fixture
def rt32(strict_config) -> NCCRuntime:
    return NCCRuntime(32, strict_config)


@pytest.fixture
def kernel_runs(monkeypatch):
    """The routers whose typed combining kernel ran during the test."""
    from repro.butterfly.routing import CombiningRouter

    runs = []
    real = CombiningRouter._run_typed

    def spy(router):
        runs.append(router)
        return real(router)

    monkeypatch.setattr(CombiningRouter, "_run_typed", spy)
    return runs


@pytest.fixture
def small_tree():
    return generators.random_tree(24, seed=5)


@pytest.fixture
def small_grid():
    return generators.grid(5, 5)


@pytest.fixture
def small_star():
    return generators.star(24)


@pytest.fixture
def small_forest2():
    return generators.forest_union(24, 2, seed=9)


@pytest.fixture
def weighted_random():
    g = generators.random_connected(24, extra_edge_prob=0.12, seed=3)
    return weights.with_random_weights(g, seed=4)


def make_runtime(n: int, *, seed: int = 42, strict: bool = True, **extras) -> NCCRuntime:
    cfg = NCCConfig(
        seed=seed,
        enforcement=Enforcement.STRICT if strict else Enforcement.COUNT,
        extras=extras,
    )
    return NCCRuntime(n, cfg)
