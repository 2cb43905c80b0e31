"""Campaign-level analysis: a finished ledger → the paper's tables.

The Synapse paper's results are *aggregates*: consistency tables (mean,
standard deviation and coefficient of variation of durations over
repeated runs, §5 E.1), error tables (relative error of every counter
against a reference, E.2/E.3) and sampling-overhead columns (E.1's
"profiling vs execution").  This module rebuilds those tables from a
campaign's store ledger: each ``(app, machine)`` group aggregates its
cells (seeds × repeats), and counter means are compared against the
same app's group on a *reference machine* (default: the first machine
in the spec) — the cross-resource analogue of the paper's
emulation-vs-application comparisons.

The ledger is read through the store's batched APIs: cell digests
resolve on the index plane (tag scans, no payloads) and one
``store.scan`` then reads exactly the artifact documents the report
aggregates, in spec-cell order — a report build touches each payload
once, never the whole store, and holds one group's profiles at a time
(plus one scan chunk), not the ledger.

Entry points: :func:`analyze_campaign` (library),
``core.api.campaign_report`` (public API) and
``repro campaign <spec> --report [--format table|json|csv]`` (CLI).
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass, field
from typing import Any, Mapping

from repro.core.errors import SynapseError
from repro.core.samples import Profile
from repro.core.statistics import MetricStats, aggregate, error_percent
from repro.runtime.campaign import CampaignSpec, ledger_ids
from repro.util.tables import Table

__all__ = [
    "CampaignAnalysis",
    "GroupStats",
    "MetricLine",
    "analyze_campaign",
]

#: Metric prefixes treated as counters in the error columns.  Statics
#: describing the machine (``sys.*``) and the duration totals
#: (``time.*``, reported separately as Tx) are excluded.
COUNTER_PREFIXES = ("cpu.", "io.", "mem.", "net.")


@dataclass(frozen=True)
class MetricLine:
    """One metric's consistency/error row within a cell group."""

    name: str
    n: int
    mean: float
    std: float
    #: Coefficient of variation in percent (the paper's consistency
    #: number: std as a fraction of the mean).
    cv_pct: float
    #: Mean of the same metric in the reference group (None when the
    #: reference group is empty or lacks the metric).
    ref_mean: float | None = None
    #: Relative error in percent against ``ref_mean``.
    err_pct: float | None = None

    def to_dict(self) -> dict[str, Any]:
        return {
            "name": self.name,
            "n": self.n,
            "mean": self.mean,
            "std": self.std,
            "cv_pct": self.cv_pct,
            "ref_mean": self.ref_mean,
            "err_pct": _json_number(self.err_pct),
        }


def _json_number(value: float | None) -> float | str | None:
    """A JSON-representable form of a possibly non-finite float.

    ``err_pct`` is infinite when the reference mean is zero but the
    measured mean is not; ``json.dumps`` would emit the non-standard
    ``Infinity`` token for it, breaking every strict consumer of
    ``--format json``.  Non-finite values travel as their string form
    (``"inf"``, ``"nan"``) instead — distinct from ``null``, which
    means "no reference to compare against".
    """
    if value is None or math.isfinite(value):
        return value
    return repr(value)


def _line(stat: MetricStats, ref_mean: float | None = None) -> MetricLine:
    """A consistency/error line from one aggregated metric.

    The aggregation itself is :func:`repro.core.statistics.aggregate` —
    the exact machinery behind ``repro stats`` — so the campaign report
    can never disagree with the per-command statistics on the same
    profiles.  That also folds the §4.3 derived metrics (``cpu.ipc``,
    ``cpu.flop_rate``, ...) into the per-metric lines.
    """
    return MetricLine(
        name=stat.name,
        n=stat.n,
        mean=stat.mean,
        std=stat.std,
        cv_pct=100.0 * stat.std / abs(stat.mean) if stat.mean else 0.0,
        ref_mean=ref_mean,
        err_pct=None if ref_mean is None else error_percent(ref_mean, stat.mean),
    )


@dataclass
class GroupStats:
    """Aggregated statistics of one ``app × machine`` cell group."""

    app: str
    machine: str
    expected: int
    present: int
    #: Per-metric consistency lines; ``"tx"`` plus every counter/total.
    metrics: dict[str, MetricLine] = field(default_factory=dict)
    #: Mean samples recorded per cell and the configured sampling rate
    #: (the sampling-overhead inputs of E.1).
    samples_mean: float = 0.0
    sample_rate: float = 0.0
    #: Profiling overhead in percent: measured Tx against the
    #: application's own accounted runtime (E.1's "profiling vs
    #: execution"; ~0 on the simulation plane by construction).
    overhead_pct: float = 0.0

    @property
    def tx(self) -> MetricLine | None:
        return self.metrics.get("tx")

    def counter_errors(self) -> dict[str, float]:
        """Relative errors (pct) of the counter metrics vs reference."""
        return {
            name: line.err_pct
            for name, line in self.metrics.items()
            if line.err_pct is not None and name.startswith(COUNTER_PREFIXES)
        }

    def to_dict(self) -> dict[str, Any]:
        return {
            "app": self.app,
            "machine": self.machine,
            "expected": self.expected,
            "present": self.present,
            "samples_mean": self.samples_mean,
            "sample_rate": self.sample_rate,
            "overhead_pct": self.overhead_pct,
            "metrics": {
                name: line.to_dict() for name, line in sorted(self.metrics.items())
            },
        }


@dataclass
class CampaignAnalysis:
    """The paper-style consistency/error report over a campaign ledger."""

    name: str
    kind: str
    reference: str
    groups: list[GroupStats] = field(default_factory=list)
    expected_cells: int = 0
    present_cells: int = 0

    @property
    def complete(self) -> bool:
        return self.present_cells == self.expected_cells

    def group(self, app: str, machine: str) -> GroupStats:
        """One group by coordinates (raises for unknown pairs)."""
        for group in self.groups:
            if group.app == app and group.machine == machine:
                return group
        raise SynapseError(f"no campaign group for app={app!r} machine={machine!r}")

    # -- renderings ---------------------------------------------------------

    def table(self) -> Table:
        """Compact per-group summary (one row per app × machine)."""
        table = Table(
            ["app", "machine", "cells", "Tx mean [s]", "Tx std", "Tx CV %",
             "err mean %", "err max %", "worst counter", "samples", "overhead %"],
            title=(
                f"campaign {self.name!r}: consistency/error vs reference "
                f"{self.reference!r} ({self.present_cells}/{self.expected_cells} "
                f"cells)"
            ),
        )
        for group in self.groups:
            cells = f"{group.present}/{group.expected}"
            if group.present == 0:
                table.add_row([group.app, group.machine, cells]
                              + ["-"] * 8)
                continue
            tx = group.tx
            errors = group.counter_errors()
            if errors:
                # max() keeps infinities: a counter that is zero on the
                # reference but nonzero here is the *most* divergent
                # metric and must headline the row, not vanish from it.
                worst = max(errors, key=lambda name: errors[name])
                err_max = errors[worst]
                finite = [v for v in errors.values() if v != float("inf")]
                err_mean = (
                    sum(finite) / len(finite) if finite else float("inf")
                )
            else:
                worst, err_mean, err_max = "-", "-", "-"
            table.add_row([
                group.app, group.machine, cells,
                tx.mean, tx.std, tx.cv_pct,
                err_mean, err_max, worst,
                group.samples_mean, group.overhead_pct,
            ])
        return table

    def to_dict(self) -> dict[str, Any]:
        return {
            "campaign": self.name,
            "kind": self.kind,
            "reference": self.reference,
            "expected_cells": self.expected_cells,
            "present_cells": self.present_cells,
            "complete": self.complete,
            "groups": [group.to_dict() for group in self.groups],
        }

    def to_json(self) -> str:
        # allow_nan=False guarantees strict JSON: any non-finite number
        # that escapes the to_dict() sanitisation fails loudly here
        # instead of emitting an unparseable 'Infinity' token.
        return (
            json.dumps(self.to_dict(), indent=1, sort_keys=True, allow_nan=False)
            + "\n"
        )

    def to_csv(self) -> str:
        """Long-form CSV: one row per ``(app, machine, metric)``."""
        from repro.export.csvout import rows_to_csv  # noqa: PLC0415 (cycle)

        headers = ["app", "machine", "metric", "n", "mean", "std", "cv_pct",
                   "ref_mean", "err_pct"]
        rows = []
        for group in self.groups:
            for name in sorted(group.metrics):
                line = group.metrics[name]
                rows.append([
                    group.app, group.machine, name, line.n,
                    repr(line.mean), repr(line.std), repr(line.cv_pct),
                    "" if line.ref_mean is None else repr(line.ref_mean),
                    "" if line.err_pct is None else repr(line.err_pct),
                ])
        return rows_to_csv(headers, rows)

    def render(self, fmt: str = "table") -> str:
        """The report in one of the CLI formats: table, json or csv."""
        if fmt == "table":
            return self.table().render()
        if fmt == "json":
            return self.to_json()
        if fmt == "csv":
            return self.to_csv()
        raise SynapseError(f"unknown report format {fmt!r} (table, json, csv)")


def _overhead_pct(profiles: list[Profile]) -> float:
    """Mean Tx vs mean application-accounted runtime, in percent."""
    # totals() is an uncached full-sample scan; bind it once per profile.
    totals = [p.totals() for p in profiles]
    tx = sum(p.tx for p in profiles) / len(profiles)
    accounted = [
        t.get("time.runtime_rusage") or t.get("time.runtime") for t in totals
    ]
    accounted = [a for a in accounted if a]
    if not accounted:
        return 0.0
    base = sum(accounted) / len(accounted)
    return 100.0 * (tx - base) / base if base else 0.0


def analyze_campaign(
    spec: CampaignSpec | Mapping[str, Any],
    store: Any,
    reference: str | None = None,
) -> CampaignAnalysis:
    """Aggregate a campaign's ledger into its consistency/error report.

    ``reference`` picks the machine whose per-app counter means anchor
    the error columns (default: the spec's first machine).  A partial
    ledger analyses the cells it has — groups with no cells render
    empty — but an *empty* ledger raises: there is nothing to report,
    and the likeliest cause is analysing before (or instead of) running
    the campaign.
    """
    if not isinstance(spec, CampaignSpec):
        spec = CampaignSpec.from_dict(spec)
    if reference is None:
        reference = spec.machines[0]
    if reference not in spec.machines:
        raise SynapseError(
            f"reference machine {reference!r} is not part of the campaign "
            f"(machines: {list(spec.machines)})"
        )
    newest = ledger_ids(store, spec.name)
    # Spec order keeps each (app, machine) group's cells together, and
    # a campaign writes them so: one scan reads the groups in turn.
    groups: list[tuple[GroupStats, list[str]]] = []
    for (app, machine), cells in itertools.groupby(
        spec.cells(), key=lambda cell: (cell.app, cell.machine)
    ):
        cells = list(cells)
        ids = [newest[cell.digest] for cell in cells if cell.digest in newest]
        groups.append((GroupStats(app, machine, len(cells), len(ids)), ids))

    present_cells = sum(group.present for group, _ids in groups)
    if present_cells == 0:
        raise SynapseError(
            f"campaign {spec.name!r} has no completed cells in the ledger; "
            "run the campaign first (repro campaign <spec.json>)"
        )

    # One aggregation pass per populated group (the full-sample scans
    # dominate report builds), holding that group's profiles only; the
    # reference anchors read out of the same results once every group
    # is in, instead of re-aggregating the reference groups.
    profiles = store.scan([pid for _group, ids in groups for pid in ids])
    group_stats: dict[tuple[str, str], dict[str, MetricStats]] = {}
    for group, ids in groups:
        if not ids:
            continue
        members = list(itertools.islice(profiles, len(ids)))
        group_stats[group.app, group.machine] = aggregate(members).metrics
        group.samples_mean = sum(p.n_samples for p in members) / len(members)
        group.sample_rate = members[0].sample_rate
        group.overhead_pct = _overhead_pct(members)
    for group, _ids in groups:
        stats = group_stats.get((group.app, group.machine))
        if stats is not None:
            anchors = group_stats.get((group.app, reference), {})
            group.metrics = {
                name: _line(stat, anchors[name].mean if name in anchors else None)
                for name, stat in stats.items()
            }

    return CampaignAnalysis(
        name=spec.name,
        kind=spec.kind,
        reference=reference,
        groups=[group for group, _ids in groups],
        expected_cells=spec.n_cells,
        present_cells=present_cells,
    )
