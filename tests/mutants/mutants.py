"""The planted-bug table, and the runner that shows each property still
kills the bug it was written for.

A :class:`Row` names a function (``module:qualname``), a fragment of its
source and the fragment's replacement, the test node that must then
fail and text its failure must contain.  The runner compiles the mutated
source and swaps it into the live function — ``__code__``,
``__defaults__``, ``__kwdefaults__`` — so every module that imported the
function by name runs the mutant too.  Nothing under ``src/`` changes,
and only the running process sees a mutant: a spawned pool or fleet
worker imports the real code.

A row is **killed** when its node fails with its text, **survived** when
the node passes, and **broken** when it proves nothing: its fragment is
not in the source exactly once, its node collects no test, the failure
is the mutant's own ``NameError`` / ``ImportError`` / ``SyntaxError`` (a
mistake in the row, not the bug), or the node fails without the text.

The whole table, one fresh ``pytest`` process per row (two at a time), at CI's
Hypothesis seed with tier-1 settings (no shrinking: a kill is a kill)::

    PYTHONPATH=src python tests/mutants/mutants.py [NAME ...]

It exits 1 unless every row is killed and :data:`CONTROL` survives.
``test_mutants.py`` runs the control, broken rows and the fastest rows
in-process in tier-1, and applies every other row.  A property PR adds
its planted bugs here.
"""

from __future__ import annotations

import ast
import importlib
import inspect
import json
import linecache
import re
import subprocess
import sys
import tempfile
import textwrap
import time
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from pathlib import Path
from typing import Iterator, NamedTuple

from hypothesis import Phase, settings

ROOT = Path(__file__).resolve().parents[2]
SEED = 20261017
PROFILE = "mutants"
settings.register_profile(
    PROFILE, phases=(Phase.explicit, Phase.reuse, Phase.generate), database=None
)


class Row(NamedTuple):
    """``fragment`` occurs once in ``target``'s source; with it replaced,
    ``node`` (relative to the repository root) fails with ``expect``."""

    name: str
    target: str
    fragment: str
    replacement: str
    node: str
    expect: str


DETERMINISM = "tests/runtime/test_campaign_determinism.py::test_every_execution_lands_the_reference_ledger"
SUPERVISOR = "tests/runtime/test_supervisor_machine.py::TestSupervision"
BATCHES = "tests/runtime/test_plan_sharing.py::test_profile_batch_equals_singles_equals_sequential"
SURFACES = "tests/core/test_input_surfaces.py::test_a_bad_field_fails_at_load_or_the_input_runs"
LEDGERS = "tests/runtime/test_ledger_digest.py::test_memory_ledgers_digest_as_the_oracle"
FALLBACKS = "tests/runtime/test_ledger_digest.py::test_only_non_str_keys_fall_back"
ENCODER = "tests/storage/test_record_encoder.py::test_a_block_row_is_encoded_as_its_whole_document"
SEGMENTS = ("tests/storage/test_record_encoder.py"
            "::test_a_segment_of_mixed_rows_is_written_as_their_whole_documents")
STAMPED = ("tests/storage/test_record_encoder.py"
           "::test_a_row_stamped_after_its_block_was_first_written_keeps_its_own_pid")
TAKEOVER = "tests/runtime/test_coordinator.py::TestTakeover"
FOLD = "tests/sim/test_fold_oracle.py::test_the_block_fold_is_the_per_row_fold"
SAME_DIGEST = "outcome(ledger_digest, store) == outcome(oracle_ledger_digest, store)"

ROWS = (
    # PR 34, and the convergence examples it restored.
    Row("steal-at-the-victims-epoch", "repro.runtime.coordinator:_Worker.deal",
        "(digest, state.epoch + 1, state)", "(digest, state.epoch, state)",
        DETERMINISM, "the late joiner did not terminate"),
    # A wave of one pair is one block: the index from its place there.
    Row("request-index-from-the-wave", "repro.runtime.execute:blocks",
        "run.append(request)", "run.append(RunRequest(**{**vars(request), 'index': len(run) + 1}))",
        DETERMINISM, "b4c735ab"),
    Row("release-leaves-the-lease-markers", "repro.runtime.coordinator:_Worker.release",
        "self._delete(self.heartbeat.release() + self.garbage)",
        "self.heartbeat.release()", DETERMINISM, "store.markers(SPEC.name) == []"),
    # The takeover examples the determinism property leaves: a failed
    # steal write, and the steal's event.
    Row("a-failed-steal-ends-the-worker", "repro.runtime.coordinator:_Worker.deal",
        "sweep.deferred += 1", "raise", f"{TAKEOVER}::test_failed_steal_write_defers_then_retries",
        "InjectedFault: injected fault at coordinator.steal"),
    Row("steal-event-names-the-victims-epoch", "repro.runtime.coordinator:_Worker.deal",
        "epoch=epoch, lease_age=age", "epoch=state.epoch, lease_age=age",
        f"{TAKEOVER}::test_steals_dead_workers_lease", "assert 1 == 2"),
    # PR 38: the supervisor machine, and the examples folded into it.
    Row("requeue-keeps-the-window", "repro.runtime.service:_SupervisedRun._requeue",
        "self.in_flight.clear()", "pass", SUPERVISOR, "in_flight"),
    Row("a-second-requeue-record", "repro.runtime.service:_SupervisedRun._deadline",
        "self._requeue()", "self._record('requeued', 1, 'info', count=1)\n        self._requeue()",
        SUPERVISOR, "('requeued', 1, 0, 1, 1.0)"),
    Row("probe-every-suspect", "repro.runtime.service:_SupervisedRun._plan",
        "[:1] or pending", " or pending", SUPERVISOR, "== [[0]]"),
    Row("a-deadline-kill-strikes-bystanders", "repro.runtime.service:_SupervisedRun._deadline",
        "self.service._shutdown_pool(kill=True)",
        "self.service._shutdown_pool(kill=True)\n        for i in self._in_flight_items():\n"
        "            self.crashes[i] += 1",
        SUPERVISOR, "run.crashes == self.strikes"),
    Row("deadline-ignores-the-budget", "repro.runtime.service:_SupervisedRun.settle",
        "now - started > self.budgets[chunk[0]] + DEADLINE_GRACE", "now - started >= 0",
        SUPERVISOR, "deadline_kills"),
    Row("chunk-outcomes-out-of-order", "repro.runtime.service:_SupervisedRun.settle",
        "zip(chunk, chunk_outcomes)", "zip(chunk, chunk_outcomes[::-1])",
        SUPERVISOR, "lost its outcome"),
    Row("a-crash-quarantines-at-once", "repro.runtime.service:_SupervisedRun._crash",
        "if self.crashes[i] >= limit:", "if self.crashes[i] >= 1:",
        SUPERVISOR, "set(survivors) <= run.remaining"),
    # The run service's batch-equals-direct property, on the block path.
    Row("request-noise-from-the-next-slot", "repro.runtime.execute:noise_row",
        "request.index,", "request.index + 1,", BATCHES, "batch == singles == sequential"),
    Row("a-profile-request-drops-its-config", "repro.runtime.execute:Block._fetch",
        "plans.config(lead.config) if", "SynapseConfig() if",
        BATCHES, "batch == singles == sequential"),
    Row("a-block-row-takes-the-leads-record", "repro.runtime.execute:Block._fetch",
        "parts.append((record, profile, True))", "parts.append(parts[0])",
        BATCHES, "batch == singles == sequential"),
    # PR 39: the emulation layout, draw table and one-pass compile.
    Row("duration-rows-draw-every-slot", "repro.sim.engine:_draw_table",
        "draws, sigmas = draws[durations], float(duration_sigma)",
        "sigmas = float(duration_sigma)",
        "tests/sim/test_layout.py::test_the_draw_table_draws_what_the_parent_drew",
        "got.tobytes() == want.tobytes()"),
    Row("io-contention-not-applied", "repro.sim.engine:Engine._bind",
        "duration = duration * lay.i_contention", "duration = duration",
        "tests/sim/test_layout.py::test_a_layout_binds_to_the_parents_plan_on_every_machine",
        "AssertionError: slot_values"),
    Row("compile-drops-the-stall-ratio-check", "repro.core.plan:EmulationPlan._build",
        "threads, cycles, stall_ratio)", "threads, cycles, None)",
        "tests/core/test_plan_compile.py::test_settings_no_config_makes_fail_where_the_builder_did",
        "stall_ratio must be"),
    Row("disk-load-row-without-its-stream", "repro.core.plan:EmulationPlan._build",
        "check_io(0, extra, write_block)\n                    stream_phase.append(phase)\n"
        "                    stream_first.append(n)\n",
        "check_io(0, extra, write_block)\n",
        "tests/core/test_plan_compile.py::test_the_one_pass_compile_is_the_builders",
        "AssertionError: stream_phase"),
    # PR 40: the ledger digest against its oracle.
    Row("str-keyed-checks-no-key", "repro.runtime.campaign:_str_keyed",
        "if not _STR.issuperset(map(type, node)):", "if False:", LEDGERS, SAME_DIGEST),
    Row("str-keyed-skips-tuples", "repro.runtime.campaign:_str_keyed",
        "(dict, list, tuple))", "(dict, list))",
        FALLBACKS, "counter('campaign.digest.fallbacks')"),
    Row("str-keyed-skips-subclasses", "repro.runtime.campaign:_str_keyed",
        "isinstance(child, (dict, list, tuple))", "type(child) in (dict, list, tuple)",
        FALLBACKS, SAME_DIGEST),
    Row("pid-popped-from-the-profiles-own-dict", "repro.runtime.campaign:_comparable_text",
        "process = dict(process)", "pass",
        LEDGERS, "[repr(p.to_dict()) for p in stored] == before"),
    # PR 42: one check per kind of input field.
    Row("number-accepts-nan", "repro.core.errors:number",
        "kind = type(value)", "kind = type(value)\n    if value != value:\n        return value",
        SURFACES, "('poisson', ('rate',), 'nan')"),
    Row("number-accepts-inf", "repro.core.errors:number",
        "-math.inf < value < math.inf", "-math.inf <= value <= math.inf", SURFACES, "'inf')"),
    Row("number-accepts-bools", "repro.core.errors:number",
        "kind is not bool and isinstance", "isinstance", SURFACES, "a bool loaded as a number"),
    Row("whole-number-accepts-bools", "repro.core.errors:whole_number",
        "not isinstance(value, bool) and isinstance", "isinstance",
        SURFACES, "a bool loaded as a number"),
    Row("mapping-accepts-unknown-keys", "repro.core.errors:mapping",
        "if unknown:", "if False:", SURFACES, "unexpected keyword argument"),
    Row("whole-number-accepts-fractions", "repro.core.errors:whole_number",
        "value % 1 == 0", "value == value", SURFACES, "a fraction loaded as a count"),
    # A campaign's store op retries a transient failure.
    Row("store-op-never-retries", "repro.runtime.campaign:_store_op",
        "if attempt >= STORE_ATTEMPTS or not is_retryable(exc):", "if True:",
        "tests/runtime/test_campaign_faults.py::TestChaosConvergence"
        "::test_a_failed_store_put_is_retried_once",
        "injected fault at store.put"),
    # PR 44: every payload read re-verifies its record.
    Row("payload-read-skips-the-rehash", "repro.storage.filestore:FileStore._docs",
        "data, record.sum", "data, None",
        "tests/storage/test_checksums.py::TestCompatibilityAndCaching"
        "::test_damage_after_a_read_is_caught_on_the_next_read",
        "DID NOT RAISE <class 'repro.core.errors.CorruptArtifactError'>"),
    # PR 46: one check per workload field.
    Row("compute-check-lets-inf-instructions-through", "repro.sim.demands:check_compute",
        "0 <= instructions < _INF", "0 <= instructions <= _INF",
        "tests/core/test_input_surfaces.py::test_a_bad_demand_field_fails_on_every_build_path",
        "DID NOT RAISE <class 'repro.core.errors.WorkloadError'>"),
    # PR 47: the record encoder against one whole-document encode.
    Row("text-columns-split-as-numbers", "repro.storage.filestore:_pieces",
        "type(value) is int or type(value) is float", "type(value) in (int, float, bool, str)",
        ENCODER, "encoded == [_oracle(profile) for profile in profiles]"),
    Row("number-texts-in-reversed-row-order", "repro.storage.filestore:_pieces",
        '.split(", ")', '.split(", ")[::-1]',
        ENCODER, "encoded == [_oracle(profile) for profile in profiles]"),
    # PR 52: a record compiled once per block, rows filled into it.
    Row("a-slot-filled-from-the-neighbouring-row", "repro.storage.filestore:_pieces",
        "texts[row]", "texts[row - 1]",
        ENCODER, "encoded == [_oracle(profile) for profile in profiles]"),
    Row("a-pid-encoded-once-per-block", "repro.storage.filestore:_pieces",
        'key != "pid" and all(', "all(", STAMPED, "== oracle_record(rows[1])"),
    Row("a-read-row-filled-into-its-blocks-record", "repro.storage.filestore:_parts",
        'block is not None and held.keys().isdisjoint(("machine", "config", "statics", "info"))',
        "block is not None",
        ENCODER, "encoded == [_oracle(profile) for profile in profiles]"),
    Row("an-index-row-with-the-records-command-as-its-tags", "repro.storage.filestore:_write_segment",
        '"tags": {parts[3]}', '"tags": {parts[1]}', SEGMENTS, "== want"),
    # The counter fold against its per-row oracle: one breakpoint layout
    # per block, bins past the empty ones, idle intervals, the guard.
    Row("a-row-off-the-layout-folded-on-it", "repro.sim.engine:_Grid.__init__",
        "if not np.all(fits):", "if False:", FOLD, "times', array("),
    Row("a-start-bin-folded-before-its-end-bin", "repro.sim.engine:_Grid.__init__",
        "bins[:, :k] += 1", "bins[:, k:] += 1", FOLD, "carries', array("),
    Row("idle-intervals-left-unpinned", "repro.sim.engine:_Grid.__init__",
        "hits[:, :-1, 0]).cumsum(axis=1) == 0", "hits[:, :-1, 0]).cumsum(axis=1) < 0", FOLD,
        "values', array("),
    Row("the-guard-skipped-below-its-carry", "repro.sim.engine:_Grid.accumulate",
        "guarded <= raw and ", "", FOLD, "values', array("),
    Row("the-rate-kept-a-carried-negative-zero", "repro.sim.engine:_Grid.accumulate",
        "start[:, 2] + 0.0", "start[:, 2]",
        "tests/sim/test_fold_oracle.py::test_a_carried_negative_zero_rate_folds_from_zero",
        "cpu.instructions values', array([-0., -0.,  0.])"),
    # PR 49: the flat-memory bounds.
    Row("stream-keeps-every-record", "repro.sim.stream:EngineStream.feed",
        "self.batches_done = index + 1",
        "self.batches_done = index + 1\n        self.__dict__.setdefault('kept', []).append(record)",
        "tests/sim/test_stream.py::test_the_stream_peak_does_not_grow_with_the_batches",
        "large < 1.5 * small"),
    Row("traffic-keeps-records-by-default", "repro.traffic.sim:TrafficSim.__init__",
        "keep_records: bool = False", "keep_records: bool = True",
        "tests/traffic/test_fleet.py::test_the_traffic_peak_does_not_grow_with_the_requests",
        "large < 1.5 * small"),
)

#: A no-op row on the node of a killed one: it must survive.
CONTROL = Row("control-no-op", "repro.core.errors:number",
              "kind = type(value)", "kind = type(value)", SURFACES, "")

BY_NAME = {row.name: row for row in (*ROWS, CONTROL)}


class Outcome(NamedTuple):
    name: str
    status: str  # killed, survived or broken
    detail: str
    seconds: float


class Broken(Exception):
    """The row cannot be applied as written."""


#: A failure that names one of these is the mutant's own mistake.
_OWN_ERRORS = re.compile(r"\b(NameError|ImportError|ModuleNotFoundError|SyntaxError)\b")


def _function(target: str):
    """The plain function or method ``module:qualname`` names."""
    module, _, qualname = target.partition(":")
    obj = importlib.import_module(module)
    for part in qualname.split("."):
        obj = inspect.getattr_static(obj, part)
    if not inspect.isfunction(obj):
        raise Broken(f"{target} is no plain function")
    return obj


def _mutant(func, row: Row):
    """``func`` compiled from its source with the row's replacement, in
    its own module's globals; its decorators are left off."""
    source = inspect.getsource(func)
    found = source.count(row.fragment)
    if found != 1:
        raise Broken(f"the fragment occurs {found} times in {row.target}, not once")
    text = textwrap.dedent(source.replace(row.fragment, row.replacement))
    try:
        definition = ast.parse(text).body[0]
    except SyntaxError as exc:
        raise Broken(f"the mutant does not parse: {exc}") from exc
    # Compiled at module level: a function that calls itself by name
    # finds the global, which runs the mutant too.
    code = "".join(text.splitlines(keepends=True)[definition.lineno - 1:])
    filename = f"<mutant {row.name}>"
    linecache.cache[filename] = (len(code), None, code.splitlines(keepends=True), filename)
    namespace: dict = {}
    exec(compile(code, filename, "exec"), vars(sys.modules[func.__module__]), namespace)
    mutant = namespace[definition.name]
    if mutant.__code__.co_freevars != func.__code__.co_freevars:
        raise Broken(f"{row.target} is a closure (or uses super()), which no row may target")
    return mutant


@contextmanager
def mutated(row: Row) -> Iterator[None]:
    """The row's mutant in place of its target, in this process."""
    func = _function(row.target)
    mutant = _mutant(func, row)
    saved = func.__code__, func.__defaults__, func.__kwdefaults__
    func.__code__ = mutant.__code__
    func.__defaults__, func.__kwdefaults__ = mutant.__defaults__, mutant.__kwdefaults__
    try:
        yield
    finally:
        func.__code__, func.__defaults__, func.__kwdefaults__ = saved


class _Recorder:
    """A pytest plugin that keeps the collected count and each failure."""

    def __init__(self) -> None:
        self.collected = 0
        self.failures: list[str] = []

    def pytest_collection_finish(self, session) -> None:
        self.collected = len(session.items)

    def pytest_collectreport(self, report) -> None:
        if report.failed:
            self.failures.append(report.longreprtext)

    pytest_runtest_logreport = pytest_collectreport


def _judge(row: Row, recorder: _Recorder) -> tuple[str, str]:
    text = "\n".join(recorder.failures)
    if not recorder.collected:
        return "broken", f"{row.node} collects no test\n{text}"
    if not recorder.failures:
        return "survived", "the node passed"
    own = _OWN_ERRORS.search(text)
    if own:
        return "broken", f"the node fails with a {own.group(1)}, not the bug:\n{text[-3000:]}"
    if row.expect not in text:
        return "broken", f"the node fails, but not with {row.expect!r}:\n{text[-3000:]}"
    return "killed", row.expect


def run_here(row: Row) -> Outcome:
    """Run the row's node with its mutant in place, in this process."""
    import hypothesis.core
    import pytest

    start = time.perf_counter()
    recorder = _Recorder()
    seed, profile = hypothesis.core.global_force_seed, settings.get_current_profile_name()
    try:
        with mutated(row):
            # No unraisable-exception plugin: its teardown's five full
            # garbage collections cost ≈ 0.2 s in a process the size of
            # tier-1's.
            pytest.main([str(ROOT / row.node), "-x", "-q", "--no-header", "-p", "no:cacheprovider",
                         "-p", "no:unraisableexception", f"--hypothesis-seed={SEED}",
                         f"--hypothesis-profile={PROFILE}", f"--rootdir={ROOT}"],
                        plugins=[recorder])
    except Broken as exc:
        return Outcome(row.name, "broken", str(exc), time.perf_counter() - start)
    finally:
        hypothesis.core.global_force_seed = seed
        settings.load_profile(profile)
    return Outcome(row.name, *_judge(row, recorder), time.perf_counter() - start)


def run_apart(row: Row) -> Outcome:
    """:func:`run_here` in a fresh interpreter, given two minutes."""
    with tempfile.TemporaryDirectory() as tmp:
        verdict = Path(tmp) / "outcome.json"
        try:
            proc = subprocess.run([sys.executable, __file__, "--here", row.name, str(verdict)],
                                  capture_output=True, text=True, timeout=120, cwd=ROOT)
        except subprocess.TimeoutExpired:
            return Outcome(row.name, "broken", "no verdict in 120 s", 120.0)
        if not verdict.exists():
            return Outcome(row.name, "broken",
                           f"the runner died:\n{proc.stdout[-3000:]}{proc.stderr[-3000:]}", 0.0)
        return Outcome(*json.loads(verdict.read_text()))


def main(argv: list[str]) -> int:
    if argv[:1] == ["--here"]:
        sys.path.insert(0, str(ROOT))  # as ``python -m pytest`` at the root
        Path(argv[2]).write_text(json.dumps(run_here(BY_NAME[argv[1]])))
        return 0
    ok = True
    rows = [BY_NAME[name] for name in argv] or [*ROWS, CONTROL]
    # Two rows at a time: each is a process of its own.
    with ThreadPoolExecutor(2) as pool:
        for row, outcome in zip(rows, pool.map(run_apart, rows)):
            want = "survived" if row is CONTROL else "killed"
            ok &= outcome.status == want
            print(f"{outcome.status:8} {outcome.seconds:5.1f} s  {row.name}", flush=True)
            if outcome.status != want:
                print(textwrap.indent(outcome.detail, "    "), flush=True)
    print("mutants ok" if ok else "mutants FAILED: every row must be killed, the control survive")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
