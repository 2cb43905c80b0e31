"""The paper checks' seed-only series, pinned bit for bit.

Every figure check computes its series on the simulation plane from
fixed seeds, so the numbers themselves — not just the paper's claims
about them — are a contract.  ``pin(figure, series)`` compares a series
with ``fixtures/golden_figures.json`` (floats as exact hex strings, like
``tests/core/fixtures/golden_aggregate.json``); the paper-claim asserts
stay as the tolerance layer.  Series read off host timing are never
pinned.  Regenerate the golden only with a reason named in CHANGES.md::

    PYTHONPATH=src python tests/paper/figure_golden.py
"""

from __future__ import annotations

import dataclasses
import importlib
import json
import numbers
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
GOLDEN = HERE / "fixtures" / "golden_figures.json"

#: figure -> (check module, compute function, the function turning its
#: result into the pinned series — ``None`` when it is the result).
FIGURES = {
    "fig2": ("test_sampling_effects", "compute_fig2", None),
    "fig3": ("test_sampling_effects", "compute_fig3", None),
    "fig4": ("test_e1_overhead", "compute_fig4", None),
    "fig5": ("test_e2_same_resource", "compute_fig5", None),
    "fig6": ("test_e1_consistency", "compute_fig6", None),
    "fig7": ("test_e2_portability", "compute_fig7", None),
    "fig15": ("test_e5_io", "compute_fig15", None),
    "e3": ("test_e3_kernels", "compute_e3", None),
    "e4": ("test_e4_parallel", "compute_e4", None),
    "e6": ("test_e6_placement", "compute_e6", "pinned"),
    "overhead_budget": ("test_overhead_budget", "compute_budget", "pinned"),
    "table1": ("test_table1_metrics", "compute_table1", "pinned"),
    "ablation_adaptive": ("test_ablation_adaptive", "compute_ablation", None),
}


def encode(value):
    """A series as plain JSON: floats as exact hex strings, mapping keys
    as strings, sequences as lists, dataclasses as their fields."""
    if value is None or isinstance(value, (bool, str)):
        return value
    if isinstance(value, numbers.Integral):
        return int(value)
    if isinstance(value, numbers.Real):
        return float(value).hex()
    if isinstance(value, dict):
        return {str(key): encode(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [encode(item) for item in value]
    if dataclasses.is_dataclass(value):
        return encode(dataclasses.asdict(value))
    raise TypeError(f"cannot pin a {type(value).__name__}")


def pin(figure: str, series) -> None:
    """Assert ``series`` equals the golden of ``figure`` bit for bit."""
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    assert encode(series) == golden[figure], (
        f"{figure}'s series moved off {GOLDEN.name}"
    )


def main() -> None:
    sys.path[:0] = [str(HERE), str(HERE.parents[1] / "benchmarks")]
    golden = {}
    for figure, (module, compute, series) in FIGURES.items():
        check = importlib.import_module(module)
        result = getattr(check, compute)()
        golden[figure] = encode(result if series is None else getattr(check, series)(result))
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
