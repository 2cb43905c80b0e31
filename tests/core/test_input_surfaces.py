"""One property over the input surfaces: a bad field fails at load.

Each example takes a valid JSON-shaped input of one surface — a campaign
spec, a :class:`SynapseConfig`, a run policy, a fault plan, an arrival
spec string, an app spec string (one surface per registered app, its
numeric parameters), an autoscale policy, a traffic request class or
the predictor's settings — and applies one mutation at one place in it:
a value of the wrong type, a bool for a number, a fraction, NaN or
±inf, ``null``, an empty or duplicated list, or a misspelt key.  Then
either building the input raises a :class:`ConfigError` that names the
key — as it must for a bool loaded as a number and a fraction loaded as
a count — or a minimal use of it succeeds with finite results: a one-cell
``run_campaign`` on a ``MemoryStore`` with no failed cell and a finite
Tx and totals in every stored artifact (campaign, config, run policy,
fault plan, app spec), or a 50-request ``TrafficSim`` whose report holds
no NaN (arrival spec, autoscale policy, request class), or one
prediction that charges calibration exactly when the setting says
``true`` (predictor).

The explicit examples are inputs that loaded and then ran wrong (or
failed naming no field) before the surfaces shared one set of checks
(:mod:`repro.core.errors`).

A last test holds the demand plane to its one check per kind
(:mod:`repro.sim.demands`): a NaN or infinite field fails as a
:class:`WorkloadError` naming it, built as an object demand, by a
:class:`PackedBuilder` scalar append, or in one entry of a ``*_many``
column.
"""

from __future__ import annotations

import copy
import inspect
import math
from typing import Any, Iterator

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.apps.registry import _FACTORIES, list_apps, parse_app
from repro.core.config import SynapseConfig
from repro.core.errors import ConfigError, WorkloadError
from repro.faults import FaultPlan, injected_faults
from repro.predict.models import DemandVector
from repro.predict.predictor import Predictor
from repro.runtime import CampaignSpec, RunPolicy, RunService, run_campaign
from repro.sim.demands import (
    ComputeDemand,
    IODemand,
    MemoryDemand,
    NetworkDemand,
    SleepDemand,
)
from repro.sim.packed import PackedBuilder
from repro.storage.base import MemoryStore
from repro.traffic.sim import AutoscalePolicy, TrafficSim
from repro.traffic.workload import RequestClass, RequestMix, default_mix

SERIAL = RunService(processes=1)

#: A valid input of every surface; the arrival specs are their options.
SURFACES: dict[str, dict[str, Any]] = {
    "campaign": {
        "name": "probe", "kind": "profile", "apps": ["sleeper:sleep_seconds=1"],
        "machines": ["thinkie"], "seeds": [0], "repeats": 1, "noisy": True,
        "config": {"sample_rate": 2.0}, "tags": {"experiment": "probe"},
        "policy": {"retries": 1, "timeout": 60.0, "backoff": 0.0},
    },
    "config": {
        "sample_rate": 2.0, "watchers": ["system", "cpu", "rusage"],
        "atoms": ["compute", "memory"], "drain_final_sample": True,
        "sampling_policy": "constant", "adaptive_initial_rate": 10.0,
        "adaptive_settle_seconds": 5.0, "compute_kernel": "asm",
        "io_block_size_read": "1MB", "mem_block_size": "1MB", "openmp_threads": 1,
        "mpi_processes": 1, "cpu_load": 0.0, "mem_load": 0, "disk_load": 0.0,
        "efficiency_target": 0.8, "extra": {"note": "probe"},
    },
    "policy": {"retries": 1, "timeout": 60.0, "backoff": 0.0},
    "faults": {
        "seed": 3, "name": "probe",
        "rules": [{"point": "worker.execute", "mode": "delay", "delay": 0.0,
                   "every": 2, "match_key": "nobody", "once": False}],
    },
    "poisson": {"rate": 100.0},
    "mmpp": {"rates": [50.0, 500.0], "dwells": [10.0, 2.0]},
    "diurnal": {"rate": 100.0, "amplitude": 0.5, "period": 86400.0, "phase": 0.0},
    "autoscale": {
        "slo_p99": 0.05, "max_machines": 2, "every": 10,
        "scale_down_margin": 0.25, "cooldown": 2,
    },
    # Its demand vector is not JSON: the default mix's first class's.
    "request_class": {"name": "probe", "weight": 1.0, "size_cv": 0.4},
    "predictor": {"calibrated": False},
}

#: Each registered app's numeric parameters, at their defaults: its spec
#: string's options, as an arrival spec's.
APPS = {
    name: {
        key: parameter.default
        for key, parameter in inspect.signature(_FACTORIES[name]).parameters.items()
        if type(parameter.default) in (int, float)
    }
    for name in list_apps()
}
SURFACES.update((name, options) for name, options in APPS.items() if options)
#: Surfaces built with keyword arguments, where an unknown key is
#: Python's own ``TypeError`` (a campaign's ``config`` checks its keys).
KEYWORD_SURFACES = ("config", "autoscale", "request_class", "predictor")
ARRIVALS = ("poisson", "mmpp", "diurnal")

#: Fields whose valid value is an int but that are not counts: a byte
#: quantity rounds a fraction (:func:`repro.util.units.parse_bytes`).
ROUNDED = {("config", "mem_load")}

#: The wrong type for each kind of value: what a loose loader coerced.
WRONG_TYPE = {str: 12, bool: "false", int: "7", float: "7", list: "x", dict: [["a", "b"]]}


def _paths(value: Any, path: tuple = ()) -> Iterator[tuple[tuple, Any]]:
    """Every ``(path, value)`` below the top of a JSON-shaped value."""
    items = value.items() if isinstance(value, dict) else (
        enumerate(value) if isinstance(value, list) else ()
    )
    for key, item in items:
        yield path + (key,), item
        yield from _paths(item, path + (key,))


def _kinds(surface: str, path: tuple, value: Any) -> list[str]:
    kinds = ["type", "null"]
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        kinds += ["bool", "fraction", "nan", "inf", "-inf"]
    if isinstance(value, list):
        kinds += ["empty", "duplicate"]
    if isinstance(path[-1], str) and surface not in KEYWORD_SURFACES:
        kinds += [f"rename:{path[-1][:-1]}", f"rename:{path[-1][0] + path[-1][2:]}"]
    return kinds


@st.composite
def mutations(draw) -> tuple[str, tuple, str]:
    surface = draw(st.sampled_from(sorted(SURFACES)))
    path, value = draw(st.sampled_from(list(_paths(SURFACES[surface]))))
    return surface, path, draw(st.sampled_from(_kinds(surface, path, value)))


def mutated(surface: str, path: tuple, kind: str) -> tuple[dict, str]:
    """The surface's input with ``kind`` applied at ``path``, and the
    key an error must name."""
    data = copy.deepcopy(SURFACES[surface])
    parent = data
    for step in path[:-1]:
        parent = parent[step]
    last = path[-1]
    key = next(step for step in reversed(path) if isinstance(step, str))
    value = parent[last]
    if kind.startswith("rename:"):
        key = kind.partition(":")[2]
        parent[key] = parent.pop(last)
        return data, key
    parent[last] = {
        "type": lambda: WRONG_TYPE[type(value)],
        "null": lambda: None,
        "bool": lambda: True,
        "fraction": lambda: value + 0.5,
        "nan": lambda: math.nan,
        "inf": lambda: math.inf,
        "-inf": lambda: -math.inf,
        "empty": lambda: [],
        "duplicate": lambda: value + value[:1],
    }[kind]()
    return data, key


def _spec_string(kind: str, options: dict) -> str:
    return kind + ":" + ",".join(
        f"{key}=" + ("/".join(map(str, value)) if isinstance(value, list) else str(value))
        for key, value in options.items()
    )


def _campaign(**fields: Any) -> CampaignSpec:
    return CampaignSpec.from_dict({**SURFACES["campaign"], **fields})


def build(surface: str, data: dict) -> Any:
    """Construction or load: where a bad field must fail."""
    if surface == "campaign":
        return CampaignSpec.from_dict(data)
    if surface == "config":
        SynapseConfig(**data)
        return _campaign(config=data)
    if surface == "policy":
        RunPolicy.from_dict(data)
        return _campaign(policy=data)
    if surface == "faults":
        return FaultPlan.from_dict(data)
    if surface == "autoscale":
        return AutoscalePolicy(**data)
    if surface == "request_class":
        return RequestClass(**data, vector=default_mix(seed=0).classes[0].vector)
    if surface == "predictor":
        return Predictor(**data)
    spec = _spec_string(surface, data)
    if surface in APPS:
        parse_app(spec)  # the model's own error, not the campaign's
        return _campaign(apps=[spec])
    return spec


def use(surface: str, built: Any) -> None:
    """The minimal use of a built input: it must succeed, finitely."""
    if isinstance(built, Predictor):
        vector = DemandVector(instructions=1e9, workload_class="kernel.asm")
        seconds = built.predict(vector, "thinkie").seconds
        # Calibration is on exactly when the setting is ``True``.
        named = Predictor(calibrated=built.calibrated is True)
        assert seconds == named.predict(vector, "thinkie").seconds
        return
    store = MemoryStore()
    if isinstance(built, CampaignSpec):
        report = run_campaign(built, store, service=SERIAL)
    elif isinstance(built, FaultPlan):
        with injected_faults(built):
            report = run_campaign(_campaign(), store, service=SERIAL)
    else:
        if surface == "autoscale":
            sim = TrafficSim("poisson:rate=100", ["thinkie"], engine=False,
                             autoscale=built)
        elif surface == "request_class":
            sim = TrafficSim("poisson:rate=100", ["thinkie"], RequestMix([built]),
                             engine=False)
        else:
            sim = TrafficSim(built, ["thinkie"], engine=False)
        assert _finite(sim.run(50).to_dict())
        return
    assert report.failed == [] and report.complete, report.failed
    # A cell that stores a NaN Tx has not failed: read the artifacts.
    for profile in store.get_many(store.ids_for()):
        assert _finite({"tx": profile.tx, **profile.totals()}), profile.command


def _finite(value: Any) -> bool:
    if isinstance(value, float):
        return math.isfinite(value)
    if isinstance(value, dict):
        return all(_finite(item) for item in value.values())
    if isinstance(value, list):
        return all(_finite(item) for item in value)
    return True


@settings(
    max_examples=60, deadline=None, derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(mutation=mutations())
# repro traffic "poisson:rte=10" ran at the default rate.
@example(("poisson", ("rate",), "rename:rte"))
# "diurnal:rate=10,amplitud=0.9" kept the default amplitude.
@example(("diurnal", ("amplitude",), "rename:amplitud"))
# "poisson:rate=nan" printed a NaN mean latency.
@example(("poisson", ("rate",), "nan"))
# "mmpp:rates=inf/5,dwells=1/1" failed in numpy, naming no key.
@example(("mmpp", ("rates", 0), "inf"))
# AutoscalePolicy(slo_p99=nan, max_machines=2) constructed.
@example(("autoscale", ("slo_p99",), "nan"))
# A campaign "name": null loaded as 'None', 12 as '12'.
@example(("campaign", ("name",), "null"))
@example(("campaign", ("name",), "type"))
# "tags": [["a", "b"]] loaded as {'a': 'b'}.
@example(("campaign", ("tags",), "type"))
# A fault rule "point": null loaded as 'None' (never fires), a
# "match_key": 7 as '7'.
@example(("faults", ("rules", 0, "point"), "null"))
@example(("faults", ("rules", 0, "match_key"), "type"))
# SynapseConfig(extra=...) took anything.
@example(("config", ("extra",), "type"))
# A request class with size_cv=nan drew NaN size factors, one with
# weight=nan a mix that drew only its first class.
@example(("request_class", ("size_cv",), "nan"))
@example(("request_class", ("weight",), "nan"))
# Predictor(calibrated="false") charged the calibration bias.
@example(("predictor", ("calibrated",), "type"))
# A campaign of "sleeper:sleep_seconds=nan" and "synthetic:instructions=inf"
# executed both cells and stored a Tx of nan and of inf.
@example(("sleeper", ("sleep_seconds",), "nan"))
@example(("synthetic", ("instructions",), "inf"))
# "gromacs:iterations=2.5" and "gromacs:iterations=1e400" loaded, and
# "sleeper:sleep_seconds=true" slept one second.
@example(("gromacs", ("iterations",), "fraction"))
@example(("gromacs", ("iterations",), "inf"))
@example(("sleeper", ("sleep_seconds",), "bool"))
def test_a_bad_field_fails_at_load_or_the_input_runs(mutation):
    surface, path, kind = mutation
    data, key = mutated(surface, path, kind)
    try:
        built = build(surface, data)
        if surface in ARRIVALS:
            TrafficSim(built, ["thinkie"], engine=False)
    except ConfigError as exc:
        assert key in str(exc), (key, str(exc))
        return
    assert kind != "bool", f"{key}: a bool loaded as a number"
    # An int-valued field is a count: a fraction there must not load.
    assert kind != "fraction" or (surface, path[-1]) in ROUNDED or type(
        _value(surface, path)) is not int, f"{key}: a fraction loaded as a count"
    use(surface, built)


def _value(surface: str, path: tuple) -> Any:
    value = SURFACES[surface]
    for step in path:
        value = value[step]
    return value


@pytest.mark.parametrize("surface", sorted(SURFACES))
def test_every_valid_input_runs(surface):
    use(surface, build(surface, copy.deepcopy(SURFACES[surface])))


#: Per kind of demand: its class, its scalar append, its column append
#: (``None``: there is none) and valid values of its numeric fields.
DEMANDS = {
    "compute": (ComputeDemand, "compute", "compute_many", {
        "instructions": 1e6, "flops_per_instruction": 0.5, "threads": 2,
        "calibrated_cycles": 1e6, "stall_ratio": 0.5,
    }),
    "io": (IODemand, "io", "io_many",
           {"bytes_read": 4096, "bytes_written": 4096, "block_size": 1024}),
    "memory": (MemoryDemand, "memory", "memory_many",
               {"allocate": 4096, "free": 4096, "block_size": 1024}),
    "network": (NetworkDemand, "network", "network_many",
                {"bytes_sent": 4096, "bytes_received": 4096, "block_size": 1024}),
    "sleep": (SleepDemand, "sleep", None, {"seconds": 1.0}),
}


def _build_demand(kind: str, field: str, bad: float, path: str) -> None:
    """Build a ``kind`` demand with ``bad`` in ``field`` along ``path``."""
    demand, append, append_many, valid = DEMANDS[kind]
    fields = {**valid, field: bad}
    if path == "object":
        demand(**fields)
    elif path == "append":
        getattr(PackedBuilder("probe"), append)(**fields)
    else:
        # One bad entry in the middle of a column of valid ones; the
        # first field fixes the chunk's length.
        first = next(iter(valid))
        column = {first: [valid[first]] * 3, field: [valid[field], bad, valid[field]]}
        getattr(PackedBuilder("probe"), append_many)(**column)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("kind, field, path", [
    (kind, field, path)
    for kind, (_, _, append_many, valid) in DEMANDS.items() for field in valid
    for path in ("object", "append", "many")[: 3 if append_many else 2]
])
def test_a_bad_demand_field_fails_on_every_build_path(kind, field, path, bad):
    with pytest.raises(WorkloadError, match=f"^{field} must be"):
        _build_demand(kind, field, bad, path)
