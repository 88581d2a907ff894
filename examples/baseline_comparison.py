"""Head-to-head: Twig XSKETCH vs the Correlated Suffix Tree baseline.

Gives both summaries the *same* byte budget over the same document and
the same simple-path twig workload (the Figure 9(c) setting), then prints
per-summary errors and a small per-query sample so the failure mode is
visible: the CST's independence assumption overshoots on correlated
structure, while the XSKETCH spends its budget on exactly those
correlated regions.

Run:  python examples/baseline_comparison.py
"""

from repro.baselines import CorrelatedSuffixTree, CSTEstimator
from repro.build import xbuild
from repro.datasets import generate_imdb
from repro.estimation import TwigEstimator
from repro.workload import (
    WorkloadGenerator,
    WorkloadSpec,
    average_relative_error,
)

BUDGET_BYTES = 6 * 1024


def main() -> None:
    tree = generate_imdb(12_000, seed=2)
    spec = WorkloadSpec(seed=41, branch_probability=0.15, descendant_probability=0.0)
    workload = WorkloadGenerator(tree, spec).positive_workload(80)
    truths = workload.true_counts()

    cst = CorrelatedSuffixTree.build(tree, BUDGET_BYTES)
    cst_estimator = CSTEstimator(cst)
    sketch = xbuild(tree, BUDGET_BYTES, seed=5)
    xsketch_estimator = TwigEstimator(sketch)

    cst_estimates = [cst_estimator.estimate(e.query) for e in workload.queries]
    xsketch_estimates = [
        xsketch_estimator.estimate(e.query) for e in workload.queries
    ]
    cst_error = average_relative_error(cst_estimates, truths, exclude_above=10.0)
    xsketch_error = average_relative_error(xsketch_estimates, truths)

    print(f"budget: {BUDGET_BYTES / 1024:.0f} KB each")
    print(f"CST         size {cst.size_bytes() / 1024:.1f} KB  "
          f"error {100 * cst_error:.1f}%")
    print(f"Twig XSKETCH size {sketch.size_kb():.1f} KB  "
          f"error {100 * xsketch_error:.1f}%")
    print(f"error ratio err_CST / err_X = "
          f"{cst_error / max(xsketch_error, 1e-6):.1f}\n")

    print("worst CST queries (true vs CST vs XSKETCH):")
    scored = sorted(
        zip(workload.queries, cst_estimates, xsketch_estimates),
        key=lambda row: -abs(row[1] - row[0].true_count)
        / max(1, row[0].true_count),
    )
    for entry, cst_estimate, xsketch_estimate in scored[:3]:
        print(f"  {entry.query.text()}")
        print(
            f"    true {entry.true_count:>8,}   "
            f"CST {cst_estimate:>10,.0f}   XSKETCH {xsketch_estimate:>10,.0f}"
        )


if __name__ == "__main__":
    main()
