"""Experiment configuration (scales, budgets, seeds).

The paper's runs use ~100K-element documents and 1000-query workloads;
regenerating every figure at that scale takes a while in pure Python, so
the defaults are scaled down and overridable through environment
variables:

* ``REPRO_SCALE`` — target element count per data set (default 12000);
* ``REPRO_QUERIES`` — queries per workload (default 120; paper 1000);
* ``REPRO_BUDGET_STEPS`` — number of synopsis-size points on each curve
  (default 4);
* ``REPRO_BUDGET_STRIDE`` — extra synopsis bytes per budget step (default
  3072; the paper's Figure 9 reaches 50 KB, e.g. 4 steps of 12288).

EXPERIMENTS.md records which scale produced the committed numbers.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field


def _env_int(name: str, default: int) -> int:
    try:
        return int(os.environ.get(name, default))
    except ValueError:
        return default


@dataclass(frozen=True)
class ExperimentConfig:
    """Scales and seeds shared by all experiments."""

    scale: int = field(default_factory=lambda: _env_int("REPRO_SCALE", 12_000))
    queries: int = field(default_factory=lambda: _env_int("REPRO_QUERIES", 120))
    budget_steps: int = field(
        default_factory=lambda: _env_int("REPRO_BUDGET_STEPS", 4)
    )
    #: extra synopsis bytes added per budget step during the sweeps
    budget_stride: int = field(
        default_factory=lambda: _env_int("REPRO_BUDGET_STRIDE", 3072)
    )
    #: (name, seed) pairs — a tuple so the config stays hashable for caching
    dataset_seeds: tuple = (("xmark", 1), ("imdb", 2), ("sprot", 3))
    workload_seed: int = 101
    build_seed: int = 55

    def seed_for(self, name: str) -> int:
        """The generator seed of one data set."""
        return dict(self.dataset_seeds)[name]

    def budgets(self, base_bytes: int) -> list[int]:
        """The synopsis-size points of a sweep, starting at the coarsest."""
        return [
            base_bytes + step * self.budget_stride
            for step in range(self.budget_steps + 1)
        ]


DEFAULT_CONFIG = ExperimentConfig()
