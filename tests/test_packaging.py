"""Package metadata: ``pyproject.toml`` declares what the code imports.

Installing the package must pull numpy (typed payload columns and the
batched/sharded engines need it), with the same range the CI toolchain
pins, and the declared version must be the one ``repro`` reports.
"""

from __future__ import annotations

import tomllib
from pathlib import Path

import repro

ROOT = Path(__file__).resolve().parent.parent


def test_pyproject_declares_version_and_numpy():
    project = tomllib.loads((ROOT / "pyproject.toml").read_text(encoding="utf-8"))["project"]
    assert project["name"] == "repro"
    assert project["version"] == repro.__version__
    ci_pins = (ROOT / "requirements-ci.txt").read_text(encoding="utf-8").splitlines()
    numpy_pin = next(line for line in ci_pins if line.startswith("numpy"))
    assert numpy_pin in project["dependencies"]
