"""The ``synapse`` command-line interface.

The paper ships "a set of command line tools which are wrappers around
certain configurations and combinations of the profile and emulate
methods" (§4).  Subcommands:

* ``synapse profile <command> [--tags k=v ...]`` — profile a shell
  command on the host plane (or an app model on a simulated machine);
* ``synapse emulate <command> [--tags ...]``     — replay a stored profile;
* ``synapse list``                               — stored profile keys;
* ``synapse show <command>``                     — totals + derived metrics;
* ``synapse stats <command>``                    — multi-profile statistics;
* ``synapse machines``                           — simulated machine models;
* ``synapse metrics``                            — Table 1 metric inventory;
* ``synapse predict <command> --machines ...``   — analytical runtime
  prediction of a stored profile on machines it never ran on;
* ``synapse place <app> --machines ...``         — workload-placement
  planning across heterogeneous machine sets (``repro.predict``);
* ``synapse campaign <spec.json>``               — run/resume a
  declarative sweep through the unified run service
  (``repro.runtime``), with a resumable on-store ledger;
  ``--elastic --join NAME`` attaches one lease-holding worker to a
  sweep that invocations or hosts sharing the store split, and
  ``--report`` aggregates a finished (or partial) ledger into the
  paper-style consistency/error tables (``--format table|json|csv``).
  SIGTERM/SIGINT drain gracefully: the in-flight wave finishes and is
  checkpointed, leases are released, and the run resumes later.

Every subcommand also accepts ``--faults PLAN`` (JSON file or inline
JSON), activating the deterministic fault-injection plane
(:mod:`repro.faults`) for the invocation — the CLI face of the
``REPRO_FAULTS`` environment variable.

The console script installs as ``repro`` (see ``setup.py``), so the
paper-facing spellings are ``repro predict``, ``repro place`` and
``repro campaign``.  Registry listings (``machines``, ``kernels``,
``apps``) print in sorted name order regardless of registration order,
so campaign specs and tests built from them are stable.
"""

from __future__ import annotations

import argparse
import sys
from typing import Sequence

from repro.core.api import emulate as api_emulate
from repro.core.api import profile as api_profile
from repro.core.api import stats as api_stats
from repro.core.config import SynapseConfig
from repro.core.errors import ProfileNotFoundError, whole_number
from repro.core.metrics import table1_rows
from repro.core.samples import Profile
from repro.sim.machines import get_machine, list_machines
from repro.storage import open_store
from repro.telemetry import configure as configure_telemetry
from repro.telemetry import get_bus
from repro.telemetry.events import LEVELS
from repro.util.tables import Table
from repro.util.units import format_bytes, format_duration, format_frequency

__all__ = ["main", "build_parser"]

_DEFAULT_STORE = "file://.synapse/profiles"


def _telemetry_parent() -> argparse.ArgumentParser:
    """Shared ``--log-level/--log-json/--trace/--faults`` flags.

    ``default=SUPPRESS`` keeps a subparser from clobbering a value the
    main parser already set, so the flags work both before and after the
    subcommand (``repro --trace t.json campaign ...`` and ``repro
    campaign ... --trace t.json``).  An unset flag leaves the attribute
    off the namespace entirely (``set_defaults`` would mutate the shared
    parent actions' defaults and reintroduce the clobbering);
    :func:`main` reads the flags with ``getattr`` fallbacks.
    """
    parent = argparse.ArgumentParser(add_help=False)
    group = parent.add_argument_group("telemetry")
    group.add_argument(
        "--log-level",
        choices=sorted(LEVELS, key=LEVELS.get),
        default=argparse.SUPPRESS,
        help="emit runtime telemetry as log lines on stderr at this level",
    )
    group.add_argument(
        "--log-json",
        action="store_true",
        default=argparse.SUPPRESS,
        help="log telemetry as JSON lines (implies --log-level info)",
    )
    group.add_argument(
        "--trace",
        default=argparse.SUPPRESS,
        metavar="FILE",
        help="write a Chrome-trace JSON of the run's spans to FILE",
    )
    group.add_argument(
        "--faults",
        default=argparse.SUPPRESS,
        metavar="PLAN",
        help="activate a fault-injection plan (JSON file path or inline "
             "JSON) for this invocation; equivalent to REPRO_FAULTS",
    )
    return parent


def build_parser() -> argparse.ArgumentParser:
    """Construct the argument parser (exposed for tests)."""
    from repro import __version__  # noqa: PLC0415 (cycle)

    telemetry = _telemetry_parent()
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Synthetic application profiler and emulator (IPPS'16 reproduction)",
        epilog=(
            "prediction & placement: 'repro predict <command> --machines m1 m2' "
            "predicts a stored profile's runtime on each machine without "
            "emulating it; 'repro place <app-spec> --machines m1 m2 m3' plans "
            "task placement across heterogeneous machines (methods: eft, "
            "makespan) and '--validate' replays the plan on the simulation "
            "plane to report prediction error."
        ),
        parents=[telemetry],
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {__version__}"
    )
    parser.add_argument(
        "--store",
        default=_DEFAULT_STORE,
        help=f"profile store URL (default: {_DEFAULT_STORE})",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add_parser(name: str, **kwargs):
        return sub.add_parser(name, parents=[telemetry], **kwargs)

    p_profile = add_parser("profile", help="profile a command")
    p_profile.add_argument("command", help="shell command to profile")
    p_profile.add_argument("--tags", nargs="*", default=[], help="tags (k=v)")
    p_profile.add_argument("--rate", type=float, default=1.0, help="sample rate (Hz)")
    p_profile.add_argument("--machine", default=None, help="simulated machine (sim plane)")
    p_profile.add_argument("--repeats", type=int, default=1)

    p_emulate = add_parser("emulate", help="emulate a stored profile")
    p_emulate.add_argument("command", help="stored command to emulate")
    p_emulate.add_argument("--tags", nargs="*", default=[])
    p_emulate.add_argument("--kernel", default="asm", help="compute kernel")
    p_emulate.add_argument("--machine", default=None, help="simulated machine (sim plane)")
    p_emulate.add_argument("--openmp", type=int, default=1, help="OpenMP threads")
    p_emulate.add_argument("--mpi", type=int, default=1, help="MPI processes")

    p_app = add_parser(
        "profile-app", help="profile a simulated application model"
    )
    p_app.add_argument("spec", help="app spec, e.g. gromacs:iterations=1000000")
    p_app.add_argument("--machine", default="localhost", help="simulated machine")
    p_app.add_argument("--tags", nargs="*", default=[])
    p_app.add_argument("--rate", type=float, default=1.0)
    p_app.add_argument("--repeats", type=int, default=1)

    p_compare = add_parser(
        "compare", help="compare two stored profiles (e.g. app vs emulation)"
    )
    p_compare.add_argument("reference", help="reference command")
    p_compare.add_argument("measured", help="measured command")
    p_compare.add_argument("--reference-tags", nargs="*", default=[])
    p_compare.add_argument("--measured-tags", nargs="*", default=[])

    p_list = add_parser("list", help="list stored profiles")
    p_list.add_argument("--command", default=None)

    p_show = add_parser("show", help="show one stored profile")
    p_show.add_argument("command")
    p_show.add_argument("--tags", nargs="*", default=[])

    p_stats = add_parser("stats", help="statistics over stored repeats")
    p_stats.add_argument("command")
    p_stats.add_argument("--tags", nargs="*", default=[])

    p_report = add_parser("report", help="analysis report for a stored profile")
    p_report.add_argument("command")
    p_report.add_argument("--tags", nargs="*", default=[])

    p_export = add_parser("export", help="export a stored profile")
    p_export.add_argument("command")
    p_export.add_argument("--tags", nargs="*", default=[])
    p_export.add_argument("--format", choices=("csv", "trace"), default="csv")
    p_export.add_argument("--output", required=True, help="output file path")

    p_predict = add_parser(
        "predict", help="predict a stored profile's runtime on other machines"
    )
    p_predict.add_argument("command", help="stored command to predict")
    p_predict.add_argument("--tags", nargs="*", default=[])
    p_predict.add_argument(
        "--machines", nargs="+", default=None,
        help="target machine models (default: all registered)",
    )
    p_predict.add_argument(
        "--calibrated", action="store_true",
        help="charge kernel calibration bias (E.3 semantics)",
    )

    p_place = add_parser(
        "place", help="plan workload placement across machines"
    )
    p_place.add_argument("app", help="app spec, e.g. ensemble:width=8,stages=3")
    p_place.add_argument(
        "--machines", nargs="+", required=True, help="candidate machine models"
    )
    p_place.add_argument(
        "--method", choices=("eft", "makespan"), default="eft",
        help="placement heuristic (default: eft)",
    )
    p_place.add_argument(
        "--no-refine", action="store_true",
        help="skip the contention-aware refinement pass",
    )
    p_place.add_argument(
        "--validate", action="store_true",
        help="replay the plan on the sim plane and report prediction error",
    )

    p_campaign = add_parser(
        "campaign", help="run or resume a declarative sweep campaign"
    )
    p_campaign.add_argument("spec", help="campaign spec JSON file")
    p_campaign.add_argument(
        "--processes", type=int, default=None,
        help="worker processes for sim-plane cells (default: service decides)",
    )
    p_campaign.add_argument(
        "--limit", type=int, default=None,
        help="execute at most N pending cells this invocation (resume later)",
    )
    p_campaign.add_argument(
        "--json", default=None, help="write a machine-readable summary JSON here"
    )
    p_campaign.add_argument(
        "--elastic", action="store_true",
        help="lease-based elastic execution: workers pull pending cells in "
             "leased batches from the shared store and steal leases from "
             "crashed, hung or drained members (any number of invocations "
             "may share one store)",
    )
    p_campaign.add_argument(
        "--workers", type=int, default=None, metavar="N",
        help="with --elastic: spawn a local fleet of N elastic worker "
             "processes (default: one in-process worker)",
    )
    p_campaign.add_argument(
        "--join", default=None, metavar="NAME",
        help="with --elastic: attach one extra worker named NAME to a "
             "campaign already running elsewhere (another host, a fleet)",
    )
    p_campaign.add_argument(
        "--lease-ttl", type=float, default=None, metavar="SECONDS",
        help="with --elastic: a member silent this long is presumed dead "
             "and its leased cells are stolen (default 60)",
    )
    p_campaign.add_argument(
        "--report", action="store_true",
        help="do not execute; aggregate the ledger into the paper-style "
             "consistency/error report (execution flags are rejected; "
             "--json receives the analysis document)",
    )
    p_campaign.add_argument(
        "--format", choices=("table", "json", "csv"), default="table",
        help="report output format (with --report; default: table)",
    )
    p_campaign.add_argument(
        "--reference", default=None, metavar="MACHINE",
        help="reference machine for the report's counter-error columns "
             "(default: first machine in the spec)",
    )
    p_campaign.add_argument(
        "-q", "--quiet", action="store_true",
        help="suppress the per-wave progress lines",
    )

    p_traffic = add_parser(
        "traffic", help="simulate serving traffic through a machine fleet"
    )
    p_traffic.add_argument(
        "process", nargs="?", default="poisson:rate=100",
        help="arrival process spec: poisson:rate=R | "
             "mmpp:rates=R1/R2,dwells=D1/D2 | "
             "diurnal:rate=R,amplitude=A,period=S | trace:<path> "
             "(default: poisson:rate=100; ignored with --closed-loop)",
    )
    p_traffic.add_argument(
        "--machines", nargs="+", required=True, help="fleet machine models"
    )
    p_traffic.add_argument(
        "--requests", type=int, default=10000,
        help="number of requests to simulate (default: 10000)",
    )
    p_traffic.add_argument(
        "--discipline", choices=("fifo", "ps"), default="fifo",
        help="per-machine queue discipline (default: fifo)",
    )
    p_traffic.add_argument(
        "--dispatch", choices=("eft", "rr"), default="eft",
        help="request dispatch policy (default: eft = earliest finish)",
    )
    p_traffic.add_argument(
        "--alloc-cost", type=float, default=0.0, metavar="SECONDS",
        help="fixed machine allocation cost added to each request",
    )
    p_traffic.add_argument(
        "--closed-loop", type=int, default=None, metavar="CLIENTS",
        help="closed-loop mode: CLIENTS issue-wait-think loops instead of "
             "the open-loop arrival process",
    )
    p_traffic.add_argument(
        "--think", type=float, default=0.1, metavar="SECONDS",
        help="mean exponential think time in closed-loop mode (default 0.1)",
    )
    p_traffic.add_argument(
        "--slo-p99", type=float, default=None, metavar="SECONDS",
        help="enable in-sim autoscaling against this p99 latency SLO",
    )
    p_traffic.add_argument(
        "--max-machines", type=int, default=None,
        help="autoscaling ceiling (default: 2x the base fleet)",
    )
    p_traffic.add_argument(
        "--scale-every", type=int, default=5000, metavar="REQUESTS",
        help="requests between autoscale evaluations (default: 5000)",
    )
    p_traffic.add_argument(
        "--chunk", type=int, default=8192,
        help="arrival batch size streamed per step (default: 8192)",
    )
    p_traffic.add_argument(
        "--seed", type=int, default=0, help="trace seed (default: 0)"
    )
    p_traffic.add_argument(
        "--no-engine", action="store_true",
        help="skip engine-ledger accounting (queue/latency model only)",
    )
    p_traffic.add_argument(
        "--json", default=None, help="write the full report JSON here"
    )

    add_parser("machines", help="list simulated machine models")
    add_parser("metrics", help="print the Table 1 metric inventory")
    add_parser("kernels", help="list available compute kernels")
    add_parser("apps", help="list simulated application models")
    return parser


def _backend(machine: str | None):
    if machine is None:
        return None
    from repro.sim.backend import SimBackend  # noqa: PLC0415 (lazy)

    return SimBackend(machine)


def _cmd_profile(args: argparse.Namespace, out) -> int:
    store = open_store(args.store)
    config = SynapseConfig(sample_rate=args.rate)
    result = api_profile(
        args.command,
        tags=args.tags,
        backend=_backend(args.machine),
        config=config,
        store=store,
        repeats=args.repeats,
    )
    profiles = result if isinstance(result, list) else [result]
    for profile in profiles:
        print(
            f"profiled {profile.command!r} tags={list(profile.tags)} "
            f"Tx={format_duration(profile.tx)} samples={profile.n_samples}",
            file=out,
        )
    return 0


def _cmd_emulate(args: argparse.Namespace, out) -> int:
    store = open_store(args.store)
    config = SynapseConfig(
        compute_kernel=args.kernel,
        openmp_threads=args.openmp,
        mpi_processes=args.mpi,
    )
    result = api_emulate(
        args.command,
        tags=args.tags,
        backend=_backend(args.machine),
        config=config,
        store=store,
    )
    print(
        f"emulated {args.command!r} on {result.backend}: "
        f"Tx={format_duration(result.tx)} "
        f"(startup {format_duration(result.startup_delay)}, "
        f"kernel={config.compute_kernel})",
        file=out,
    )
    return 0


def _cmd_profile_app(args: argparse.Namespace, out) -> int:
    from repro.apps.registry import parse_app  # noqa: PLC0415 (lazy)
    from repro.sim.backend import SimBackend  # noqa: PLC0415

    app = parse_app(args.spec)  # a bad spec fails before a store is made
    store = open_store(args.store)
    config = SynapseConfig(sample_rate=args.rate)
    tags = dict(item.split("=", 1) for item in args.tags if "=" in item)
    merged_tags = {**app.tags(), **tags}
    result = api_profile(
        app,
        tags=merged_tags,
        backend=SimBackend(args.machine),
        config=config,
        store=store,
        repeats=args.repeats,
    )
    profiles = result if isinstance(result, list) else [result]
    for profile in profiles:
        print(
            f"profiled {profile.command!r} on {args.machine} "
            f"Tx={format_duration(profile.tx)} samples={profile.n_samples}",
            file=out,
        )
    return 0


def _cmd_compare(args: argparse.Namespace, out) -> int:
    from repro.core.compare import ProfileComparison  # noqa: PLC0415 (lazy)

    store = open_store(args.store)
    reference = store.find(args.reference, args.reference_tags)
    measured = store.find(args.measured, args.measured_tags)
    if not reference or not measured:
        raise ProfileNotFoundError("no matching profiles to compare")
    comparison = ProfileComparison.between(
        reference,
        measured,
        reference_label=args.reference,
        measured_label=args.measured,
    )
    print(comparison.table().render(), file=out)
    print(f"max error: {comparison.max_error():.2f}%", file=out)
    return 0


def _cmd_apps(args: argparse.Namespace, out) -> int:
    from repro.apps.registry import list_apps, parse_app  # noqa: PLC0415

    table = Table(["name", "default command", "default tags"])
    # sorted() even though the registry promises sorted names: listing
    # order is part of the CLI contract (campaign specs and tests build
    # on it) and must survive third-party registrations.
    for name in sorted(list_apps()):
        app = parse_app(name)
        table.add_row([name, app.command(), app.tags() or "-"])
    print(table.render(), file=out)
    return 0


def _cmd_campaign(args: argparse.Namespace, out) -> int:
    from repro.runtime.campaign import (  # noqa: PLC0415 (lazy)
        CampaignSpec,
        run_campaign,
    )

    # Mode-dependent flags fail fast instead of being silently ignored:
    # forgetting --report must not turn a report request into an
    # hours-long sweep execution, and --report must not swallow
    # execution flags the user clearly meant to act.
    if args.report:
        rejected = [
            name for name, value in (
                ("--limit", args.limit), ("--processes", args.processes),
                ("--elastic", args.elastic or None),
                ("--workers", args.workers), ("--join", args.join),
                ("--lease-ttl", args.lease_ttl),
            )
            if value is not None
        ]
        if rejected:
            print(
                f"error: --report does not execute the campaign; drop "
                f"{', '.join(rejected)}",
                file=sys.stderr,
            )
            return 2
    else:
        if args.format != "table" or args.reference is not None:
            print("error: --format/--reference require --report", file=sys.stderr)
            return 2
        if not args.elastic:
            if args.workers is not None or args.join is not None \
                    or args.lease_ttl is not None:
                print(
                    "error: --workers/--join/--lease-ttl require --elastic",
                    file=sys.stderr,
                )
                return 2
        else:
            if args.workers is not None and args.join is not None:
                print(
                    "error: --workers spawns a local fleet, --join attaches "
                    "one worker; pick one",
                    file=sys.stderr,
                )
                return 2
            if args.workers is not None and (
                args.processes is not None or args.limit is not None
            ):
                print(
                    "error: a --workers fleet runs each worker serially; "
                    "drop --processes/--limit",
                    file=sys.stderr,
                )
                return 2
    spec = CampaignSpec.from_json(args.spec)
    # Counts and the lease TTL are checked before the store opens (a
    # file store makes its directory): a bad one runs and stores nothing.
    for field, value, least in (
        ("processes", args.processes, 1), ("workers", args.workers, 1),
        ("limit", args.limit, 0),
    ):
        if value is not None:
            whole_number(field, value, least)
    if args.lease_ttl is not None:
        from repro.runtime.coordinator import check_lease_ttl  # noqa: PLC0415 (lazy)

        check_lease_ttl(args.lease_ttl)
    store = open_store(args.store)
    if args.report:
        from repro.runtime.analyze import analyze_campaign  # noqa: PLC0415 (lazy)

        analysis = analyze_campaign(spec, store, reference=args.reference)
        if not analysis.complete:
            # stderr, so `--format json`/`csv` stdout stays parseable.
            print(
                f"warning: ledger incomplete ({analysis.present_cells}/"
                f"{analysis.expected_cells} cells); report covers the "
                "completed cells only",
                file=sys.stderr,
            )
        if args.json:
            # Before the stdout render: a consumer truncating the pipe
            # (| head) must not cost the machine-readable artifact.
            from pathlib import Path  # noqa: PLC0415 (lazy)

            Path(args.json).write_text(analysis.to_json(), encoding="utf-8")
        print(analysis.render(args.format).rstrip("\n"), file=out)
        return 0
    def progress(summary: dict) -> None:
        print(
            f"wave {summary['wave']}/{summary['waves']}: "
            f"{summary['executed']} executed"
            + "".join(
                f", {summary[what]} {what}"
                for what in ("failed", "stolen", "deferred") if summary[what]
            )
            + f", completed {summary['completed']}/{summary['total']}"
            f" ({summary['pending']} pending), "
            f"{summary['elapsed']:.1f}s elapsed",
            file=out,
        )
        if hasattr(out, "flush"):
            out.flush()

    # Graceful shutdown: the first SIGTERM/SIGINT asks the campaign to
    # drain — the in-flight wave finishes, its artifacts and ledger
    # checkpoint land on the store, leases are released, and the
    # run reports ``interrupted`` (resumable later).  A second signal
    # aborts hard via the default KeyboardInterrupt path.
    import signal  # noqa: PLC0415 (lazy)

    stop_flag = {"stop": False}

    def _request_stop(signum, frame) -> None:
        if stop_flag["stop"]:
            raise KeyboardInterrupt
        stop_flag["stop"] = True
        print(
            "signal received: draining the current wave, then checkpointing "
            "(send again to abort hard)",
            file=sys.stderr,
        )

    previous_handlers = {}
    try:
        for signum in (signal.SIGTERM, signal.SIGINT):
            previous_handlers[signum] = signal.signal(signum, _request_stop)
    except ValueError:
        # Not the main thread (e.g. a test harness driving main() from a
        # worker thread): run without signal-based draining.
        previous_handlers = {}
    try:
        if args.elastic:
            from repro.runtime.coordinator import (  # noqa: PLC0415 (lazy)
                DEFAULT_LEASE_TTL,
                elastic_worker,
                run_elastic,
            )

            lease_ttl = (
                args.lease_ttl if args.lease_ttl is not None
                else DEFAULT_LEASE_TTL
            )

            if args.workers is not None:
                report = run_elastic(
                    spec, args.store,
                    workers=args.workers,
                    lease_ttl=lease_ttl,
                    stop=lambda: stop_flag["stop"],
                )
            else:
                report = elastic_worker(
                    spec, store,
                    worker=args.join,
                    lease_ttl=lease_ttl,
                    processes=args.processes,
                    limit=args.limit,
                    progress=None if args.quiet else progress,
                    stop=lambda: stop_flag["stop"],
                )
        else:
            report = run_campaign(
                spec, store,
                processes=args.processes,
                limit=args.limit,
                progress=None if args.quiet else progress,
                stop=lambda: stop_flag["stop"],
            )
    finally:
        for signum, handler in previous_handlers.items():
            signal.signal(signum, handler)
    print(report.table().render(), file=out)
    if report.interrupted:
        print(
            f"campaign interrupted after a clean drain; {report.remaining} "
            "cells remaining — re-run the same command to resume",
            file=out,
        )
    for failure in report.failed:
        print(
            f"failed cell {failure['cell']}: {failure['app']} on "
            f"{failure['machine']}: {failure['error']}",
            file=out,
        )
    if args.json:
        import json as _json  # noqa: PLC0415 (lazy)
        from pathlib import Path  # noqa: PLC0415 (lazy)

        Path(args.json).write_text(
            _json.dumps(report.to_dict(), indent=1, sort_keys=True) + "\n",
            encoding="utf-8",
        )
    return 1 if report.failed else 0


def _cmd_list(args: argparse.Namespace, out) -> int:
    store = open_store(args.store)
    table = Table(["command", "tags", "profiles"])
    for command, tags, count in store.keys():
        if args.command is not None and command != args.command:
            continue
        table.add_row([command, ",".join(tags) or "-", count])
    print(table.render(), file=out)
    return 0


def _cmd_show(args: argparse.Namespace, out) -> int:
    store = open_store(args.store)
    profile: Profile = store.get(args.command, args.tags)
    print(f"command : {profile.command}", file=out)
    print(f"tags    : {list(profile.tags)}", file=out)
    print(f"machine : {profile.machine.get('name', '?')}", file=out)
    print(f"samples : {profile.n_samples} @ {profile.sample_rate} Hz", file=out)
    print(f"Tx      : {format_duration(profile.tx)}", file=out)
    table = Table(["metric", "total"])
    totals = profile.totals()
    for name in sorted(totals):
        table.add_row([name, totals[name]])
    for name, value in sorted(profile.derived().items()):
        table.add_row([f"{name} (derived)", value])
    print(table.render(), file=out)
    return 0


def _cmd_stats(args: argparse.Namespace, out) -> int:
    store = open_store(args.store)
    result = api_stats(args.command, args.tags, store=store)
    print(result.table().render(), file=out)
    return 0


def _cmd_report(args: argparse.Namespace, out) -> int:
    from repro.analysis.report import profile_report  # noqa: PLC0415 (lazy)

    store = open_store(args.store)
    profile = store.get(args.command, args.tags)
    print(profile_report(profile), file=out)
    return 0


def _cmd_export(args: argparse.Namespace, out) -> int:
    store = open_store(args.store)
    profile = store.get(args.command, args.tags)
    if args.format == "csv":
        from repro.export.csvout import profile_to_csv, write_csv  # noqa: PLC0415

        write_csv(profile_to_csv(profile), args.output)
    else:
        from repro.export.trace import dump_trace, profile_to_trace  # noqa: PLC0415

        dump_trace(profile_to_trace(profile), args.output)
    print(
        f"exported {profile.command!r} ({profile.n_samples} samples) "
        f"as {args.format} to {args.output}",
        file=out,
    )
    return 0


def _cmd_predict(args: argparse.Namespace, out) -> int:
    from repro.core.api import predict as api_predict  # noqa: PLC0415 (lazy)
    from repro.predict.predictor import Predictor  # noqa: PLC0415 (lazy)

    store = open_store(args.store)
    machines = args.machines if args.machines else list_machines()
    predictions = api_predict(
        args.command,
        machines,
        tags=args.tags,
        store=store,
        predictor=Predictor(calibrated=args.calibrated),
    )
    table = Table(
        ["machine", "compute [s]", "io [s]", "memory [s]", "network [s]", "total [s]"],
        title=f"predicted runtime of {args.command!r}",
    )
    for name in machines:
        p = predictions[name]
        table.add_row(
            [
                p.machine,
                p.compute_seconds,
                p.io_seconds,
                p.memory_seconds,
                p.network_seconds,
                p.seconds,
            ]
        )
    print(table.render(), file=out)
    return 0


def _cmd_place(args: argparse.Namespace, out) -> int:
    from repro.apps.registry import parse_app  # noqa: PLC0415 (lazy)
    from repro.core.api import place as api_place  # noqa: PLC0415 (lazy)

    app = parse_app(args.app)
    result = api_place(
        app,
        args.machines,
        method=args.method,
        refine=not args.no_refine,
        validate=args.validate,
    )
    plan, report = result if args.validate else (result, None)
    print(plan.table().render(), file=out)
    loads = plan.load()
    print(
        "per-machine busy time: "
        + ", ".join(f"{name}={loads[name]:.3f}s" for name in plan.machines),
        file=out,
    )
    print(f"predicted makespan: {format_duration(plan.makespan)}", file=out)
    if report is not None:
        print(report.table().render(), file=out)
    return 0


def _cmd_traffic(args: argparse.Namespace, out) -> int:
    from repro.core.api import traffic as api_traffic  # noqa: PLC0415 (lazy)

    autoscale = None
    if args.slo_p99 is not None:
        from repro.traffic.sim import AutoscalePolicy  # noqa: PLC0415 (lazy)

        max_machines = (
            args.max_machines
            if args.max_machines is not None
            else 2 * len(args.machines)
        )
        autoscale = AutoscalePolicy(
            slo_p99=args.slo_p99,
            max_machines=max_machines,
            every=args.scale_every,
        )
    report = api_traffic(
        args.process,
        args.machines,
        requests=args.requests,
        discipline=args.discipline,
        dispatch=args.dispatch,
        alloc_cost=args.alloc_cost,
        engine=not args.no_engine,
        autoscale=autoscale,
        closed_loop=args.closed_loop,
        think=args.think,
        chunk=args.chunk,
        seed=args.seed,
    )
    print(report.table(), file=out)
    if args.json:
        import json  # noqa: PLC0415 (lazy)

        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(report.to_dict(), handle, indent=2)
    return 0


def _cmd_machines(args: argparse.Namespace, out) -> int:
    table = Table(["name", "cores", "clock", "memory", "filesystems", "description"])
    for name in sorted(list_machines()):
        machine = get_machine(name)
        table.add_row(
            [
                name,
                machine.cpu.cores,
                format_frequency(machine.cpu.frequency),
                format_bytes(machine.memory_bytes),
                ",".join(sorted(machine.filesystems)),
                machine.description,
            ]
        )
    print(table.render(), file=out)
    return 0


def _cmd_metrics(args: argparse.Namespace, out) -> int:
    table = Table(["Resource", "Metric", "Tot.", "Sampl.", "Der.", "Emul."])
    for row in table1_rows():
        table.add_row(row)
    print(table.render(), file=out)
    return 0


def _cmd_kernels(args: argparse.Namespace, out) -> int:
    from repro.kernels.registry import get_kernel, list_kernels  # noqa: PLC0415

    table = Table(["name", "workload class", "description"])
    for name in sorted(list_kernels()):
        kernel = get_kernel(name)
        table.add_row([name, kernel.workload_class, kernel.description])
    print(table.render(), file=out)
    return 0


_COMMANDS = {
    "profile": _cmd_profile,
    "profile-app": _cmd_profile_app,
    "emulate": _cmd_emulate,
    "compare": _cmd_compare,
    "apps": _cmd_apps,
    "list": _cmd_list,
    "show": _cmd_show,
    "stats": _cmd_stats,
    "report": _cmd_report,
    "export": _cmd_export,
    "predict": _cmd_predict,
    "place": _cmd_place,
    "campaign": _cmd_campaign,
    "traffic": _cmd_traffic,
    "machines": _cmd_machines,
    "metrics": _cmd_metrics,
    "kernels": _cmd_kernels,
}


def main(argv: Sequence[str] | None = None, out=None) -> int:
    """CLI entry point; returns the process exit code."""
    out = out if out is not None else sys.stdout
    parser = build_parser()
    args = parser.parse_args(argv)
    handler = _COMMANDS[args.subcommand]
    sinks = configure_telemetry(
        log_level=getattr(args, "log_level", None),
        log_json=getattr(args, "log_json", False),
        trace=getattr(args, "trace", None),
    )
    faults_spec = getattr(args, "faults", None)
    fault_plan = None
    if faults_spec is not None:
        import os  # noqa: PLC0415 (lazy)

        from repro.faults import ENV_VAR, FaultPlan, activate  # noqa: PLC0415

        try:
            fault_plan = activate(FaultPlan.from_json(faults_spec))
        except Exception as exc:  # noqa: BLE001 - CLI boundary
            print(f"error: bad fault plan: {exc}", file=sys.stderr)
            return 2
        # Exported so pool workers see the plan regardless of the
        # multiprocessing start method (fork inherits memory, spawn
        # re-reads the environment).
        os.environ[ENV_VAR] = faults_spec
    try:
        return handler(args, out)
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        if fault_plan is not None:
            import os  # noqa: PLC0415 (lazy)

            from repro.faults import ENV_VAR, deactivate  # noqa: PLC0415

            deactivate()
            os.environ.pop(ENV_VAR, None)
        bus = get_bus()
        for sink in sinks:
            bus.remove_sink(sink)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
