"""Analytical predictor tests (repro.predict.predictor)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.predict.models import DemandVector
from repro.predict.predictor import Predictor
from repro.sim.engine import Engine
from repro.sim.machines import get_machine
from repro.sim.noise import NoiseModel
from repro.sim.workload import SimWorkload

MACHINES = ("thinkie", "stampede", "titan", "comet", "supermic")

VECTORS = [
    DemandVector(instructions=5e9, workload_class="app.md"),
    DemandVector(instructions=1e9, io_write_bytes=64 << 20, io_block_size=256 << 10),
    DemandVector(io_read_bytes=128 << 20),
    DemandVector(mem_alloc_bytes=512 << 20, mem_free_bytes=256 << 20),
    DemandVector(net_bytes=32 << 20),
    DemandVector(instructions=2e9, threads=4, paradigm="openmp"),
    DemandVector(sleep_seconds=1.5),
]


def emulated_seconds(vector: DemandVector, machine_name: str) -> float:
    """Noise-free engine runtime of the vector as a single-stream workload."""
    machine = get_machine(machine_name)
    workload = SimWorkload(name="predictor-oracle")
    stream = workload.phase("p").stream("s")
    for demand in vector.to_demands(filesystem=machine.default_fs):
        stream.add(demand)
    return Engine(machine, NoiseModel.silent()).run(workload).duration


class TestPredictionAccuracy:
    @pytest.mark.parametrize("machine", MACHINES)
    @pytest.mark.parametrize("index", range(len(VECTORS)))
    def test_prediction_equals_exact_emulation(self, machine, index):
        vector = VECTORS[index]
        predicted = Predictor().predict(vector, machine).seconds
        assert predicted == pytest.approx(emulated_seconds(vector, machine), rel=1e-9)

    def test_faster_machine_predicts_shorter_compute(self):
        vector = DemandVector(instructions=1e10, workload_class="app.md")
        predictor = Predictor()
        titan = predictor.predict(vector, "titan").seconds
        supermic = predictor.predict(vector, "supermic").seconds
        assert supermic < titan

    def test_calibrated_mode_charges_cycle_bias(self):
        vector = DemandVector(instructions=1e10, workload_class="kernel.asm")
        machine = get_machine("supermic")
        plain = Predictor().predict(vector, machine)
        biased = Predictor(calibrated=True).predict(vector, machine)
        spec = machine.cpu.spec("kernel.asm")
        assert biased.compute_seconds == pytest.approx(
            plain.compute_seconds * spec.cycle_bias, rel=1e-12
        )
        assert spec.cycle_bias > 1.0

    def test_breakdown_sums_to_total(self):
        vector = DemandVector(
            instructions=1e9, io_write_bytes=1 << 20, mem_alloc_bytes=1 << 20
        )
        prediction = Predictor().predict(vector, "comet")
        parts = prediction.breakdown()
        total = parts.pop("total")
        assert total == pytest.approx(sum(parts.values()), rel=1e-12)


class TestSharedPredictor:
    """One instance answers each call from its own vector and machine."""

    @pytest.mark.parametrize("order", [(0, 1), (1, 0)])
    def test_vectors_equal_to_seven_digits_predict_apart(self, order):
        # ``instructions`` 4e9 and 4e9 + 100 agree to 7 significant
        # digits (``.6e``); each still gets its own prediction.
        vectors = [
            DemandVector(instructions=4e9),
            DemandVector(instructions=4e9 + 100),
        ]
        predictor = Predictor()
        shared = {i: predictor.predict(vectors[i], "titan") for i in order}
        for i, vector in enumerate(vectors):
            assert shared[i] == Predictor().predict(vector, "titan")
        assert shared[0].seconds != shared[1].seconds

    def test_a_variant_spec_under_the_same_name_predicts_its_own(self):
        # An ablated spec sharing the registry machine's name must not
        # get the original's prediction.
        from dataclasses import replace

        predictor = Predictor()
        vector = DemandVector(instructions=1e10, workload_class="app.md")
        titan = get_machine("titan")
        slow = replace(titan, cpu=replace(titan.cpu, frequency=titan.cpu.frequency / 2))
        fast_prediction = predictor.predict(vector, titan)
        slow_prediction = predictor.predict(vector, slow)
        assert slow_prediction.compute_seconds == pytest.approx(
            2 * fast_prediction.compute_seconds, rel=1e-9
        )


class TestPredictMany:
    def test_matches_single_pair_api(self):
        predictor = Predictor()
        machines = list(MACHINES)
        matrix = predictor.predict_many(VECTORS, machines)
        assert matrix.shape == (len(VECTORS), len(machines))
        for i, vector in enumerate(VECTORS):
            for j, machine in enumerate(machines):
                assert matrix[i, j] == pytest.approx(
                    predictor.predict(vector, machine).seconds, rel=1e-9
                )

    def test_calibrated_batch_matches_single(self):
        predictor = Predictor(calibrated=True)
        vectors = [DemandVector(instructions=1e9, workload_class="kernel.c")]
        matrix = predictor.predict_many(vectors, ["supermic"])
        assert matrix[0, 0] == pytest.approx(
            predictor.predict(vectors[0], "supermic").seconds, rel=1e-9
        )

    def test_filesystem_parameter_matches_single_pair_api(self):
        predictor = Predictor()
        vectors = [DemandVector(io_write_bytes=64 << 20)]
        matrix = predictor.predict_many(vectors, ["supermic"], filesystem="local")
        assert matrix[0, 0] == pytest.approx(
            predictor.predict(vectors[0], "supermic", filesystem="local").seconds,
            rel=1e-9,
        )
        # Lustre and local rates differ on supermic, so the mounts must too.
        default = predictor.predict_many(vectors, ["supermic"])
        assert matrix[0, 0] != pytest.approx(default[0, 0], rel=1e-3)

    def test_empty_inputs(self):
        predictor = Predictor()
        assert predictor.predict_many([], ["titan"]).shape == (0, 1)
        assert predictor.predict_many(VECTORS, []).shape == (len(VECTORS), 0)

    def test_thousand_pairs_under_a_second(self):
        import time

        rng = np.random.default_rng(7)
        vectors = [
            DemandVector(
                instructions=float(rng.integers(1e8, 1e10)),
                io_write_bytes=float(rng.integers(0, 1 << 24)),
                workload_class=("app.md", "app.generic")[int(rng.integers(2))],
            )
            for _ in range(250)
        ]
        predictor = Predictor()
        start = time.perf_counter()
        matrix = predictor.predict_many(vectors, list(MACHINES)[:4])
        elapsed = time.perf_counter() - start
        assert matrix.shape == (250, 4)  # 1000 (workload, machine) pairs
        assert elapsed < 1.0
        assert np.all(matrix > 0)
