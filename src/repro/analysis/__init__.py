"""Experiment analysis: complexity-shape fitting and table rendering."""

from . import complexity, reporting

__all__ = ["complexity", "reporting"]
