"""Generate ``fixtures/golden_stream_checkpoint.json``.

A noisy :class:`~repro.sim.stream.EngineStream` of a gromacs run on
thinkie, fed the first two of its three phase batches, checkpointed and
written as JSON.  ``test_stream.py`` restores the committed file, feeds
the third batch and compares it with an uninterrupted run, so a change
to the checkpoint format that strands saved streams shows.  The file was
written before ``restore`` learned to name malformed fields; regenerate
it only when the checkpoint format changes on purpose::

    PYTHONPATH=src python tests/sim/gen_stream_checkpoint.py
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.apps import GromacsModel
from repro.sim.engine import Engine
from repro.sim.machines import get_machine
from repro.sim.noise import NoiseModel
from repro.sim.workload import SimWorkload

FIXTURE = Path(__file__).parent / "fixtures" / "golden_stream_checkpoint.json"
MACHINE = "thinkie"


def gromacs_batches() -> list[SimWorkload]:
    """The stream's batches: one per phase of a gromacs workload."""
    workload = GromacsModel(iterations=20_000).build_workload(get_machine(MACHINE))
    return [
        SimWorkload(
            name=workload.name, phases=[phase], base_rss=workload.base_rss,
            metadata=dict(workload.metadata),
        )
        for phase in workload.phases
    ]


def open_stream():
    batches = gromacs_batches()
    engine = Engine(
        get_machine(MACHINE),
        NoiseModel(seed=7, duration_sigma=0.02, counter_sigma=0.007),
    )
    return engine.open_stream(name=batches[0].name, base_rss=batches[0].base_rss)


def main() -> None:
    stream = open_stream()
    for batch in gromacs_batches()[:2]:
        stream.feed(batch)
    FIXTURE.write_text(
        json.dumps(stream.checkpoint(), indent=1, sort_keys=True) + "\n",
        encoding="utf-8",
    )


if __name__ == "__main__":
    main()
