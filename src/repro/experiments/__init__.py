"""Experiment harness: regenerates every table and figure of the paper.

Each ``run_*`` returns structured results; each ``format_*`` renders them
in the paper's layout with the paper's numbers quoted in a footnote.
The benchmarks under ``benchmarks/`` drive these and print the outputs.
"""

from .config import DEFAULT_CONFIG, ExperimentConfig
from .extras import (
    format_branch_conditioning_ablation,
    format_edge_count_ablation,
    format_engine_ablation,
    format_negative,
    format_path_ablation,
    run_branch_conditioning_ablation,
    run_edge_count_ablation,
    run_engine_ablation,
    run_negative,
    run_path_ablation,
)
from .figure9 import (
    format_figure9a,
    format_figure9b,
    format_figure9c,
    run_figure9a,
    run_figure9b,
    run_figure9c,
)
from .runner import (
    DATASETS,
    dataset,
    sketch_error,
    synopsis_sweep,
    workload,
)
from .tables import format_table1, format_table2, run_table1, run_table2

__all__ = [
    "DATASETS",
    "DEFAULT_CONFIG",
    "ExperimentConfig",
    "dataset",
    "format_branch_conditioning_ablation",
    "format_edge_count_ablation",
    "format_engine_ablation",
    "format_figure9a",
    "format_figure9b",
    "format_figure9c",
    "format_negative",
    "format_path_ablation",
    "format_table1",
    "format_table2",
    "run_branch_conditioning_ablation",
    "run_edge_count_ablation",
    "run_engine_ablation",
    "run_figure9a",
    "run_figure9b",
    "run_figure9c",
    "run_negative",
    "run_path_ablation",
    "run_table1",
    "run_table2",
    "sketch_error",
    "synopsis_sweep",
    "workload",
]
