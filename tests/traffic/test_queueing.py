"""Queue primitives, digest invariance, and queueing-theory properties.

The hand-worked PS example and the FIFO fold identities are exact; the
Little's-law check is an *identity* over the recorded horizon (near
machine precision), while the Pollaczek–Khinchine mean-wait check is
statistical and uses the shared tolerance helper.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.traffic.arrivals import PoissonProcess
from repro.traffic.queueing import (
    BlockDigest,
    FifoQueue,
    PSQueue,
    max_concurrent,
    time_average_in_system,
)
from repro.traffic.sim import ClosedLoopSim, TrafficSim
from repro.traffic.workload import default_mix, unit_seconds

from tests.traffic.traffic_stats import assert_stat_close


class TestFifoQueue:
    def test_idle_server_starts_immediately(self):
        queue = FifoQueue()
        start, finish = queue.offer(5.0, 2.0)
        assert (start, finish) == (5.0, 7.0)

    def test_busy_server_queues(self):
        queue = FifoQueue()
        queue.offer(0.0, 10.0)
        start, finish = queue.offer(3.0, 2.0)
        assert (start, finish) == (10.0, 12.0)
        assert queue.backlog(3.0) == pytest.approx(9.0)
        assert queue.backlog(20.0) == 0.0

    def test_busy_seconds_accumulate(self):
        queue = FifoQueue()
        for t, s in [(0.0, 1.0), (0.5, 2.0), (10.0, 3.0)]:
            queue.offer(t, s)
        assert queue.busy == pytest.approx(6.0)
        assert queue.served == 3

    def test_state_roundtrip(self):
        queue = FifoQueue()
        queue.offer(0.0, 4.0)
        queue.offer(1.0, 1.0)
        clone = FifoQueue.restore(json.loads(json.dumps(queue.state_dict())))
        assert clone.offer(2.0, 1.0) == queue.offer(2.0, 1.0)


class TestPSQueue:
    def test_two_job_hand_example(self):
        # Job 0: t=0, work 2.  Job 1: t=1, work 2.
        # [0,1): job 0 alone, 1 unit done.  [1,3): both share, job 0's
        # remaining 1 takes 2 wall seconds -> finishes at t=3 with job 1
        # at 1 remaining.  [3,4): job 1 alone -> finishes at t=4.
        queue = PSQueue()
        assert queue.offer(0.0, 2.0, job=0) == []
        assert queue.offer(1.0, 2.0, job=1) == []
        completions = queue.drain()
        assert completions == [(0, pytest.approx(3.0)), (1, pytest.approx(4.0))]

    def test_single_job_runs_at_full_rate(self):
        queue = PSQueue()
        queue.offer(2.0, 3.0, job=7)
        assert queue.advance_to(4.0) == []
        assert queue.work_left() == pytest.approx(1.0)
        assert queue.drain() == [(7, pytest.approx(5.0))]

    def test_simultaneous_equal_jobs_finish_together(self):
        queue = PSQueue()
        queue.offer(0.0, 1.0, job=0)
        queue.offer(0.0, 1.0, job=1)
        finishes = dict(queue.drain())
        assert finishes[0] == pytest.approx(2.0)
        assert finishes[1] == pytest.approx(2.0)

    def test_mean_sojourn_invariant_to_arrival_batching(self):
        # The fold is per-event, so feeding identical arrival sequences
        # must produce identical completions regardless of when the
        # caller interleaves advance_to probes.
        arrivals = np.cumsum(np.random.Generator(np.random.PCG64(5)).exponential(0.5, 64))
        works = np.random.Generator(np.random.PCG64(6)).exponential(0.4, 64)

        def run(probe_every):
            queue = PSQueue()
            done = []
            for j, (t, w) in enumerate(zip(arrivals, works)):
                done.extend(queue.offer(float(t), float(w), j))
                if probe_every and j % probe_every == 0:
                    done.extend(queue.advance_to(float(t)))
            done.extend(queue.drain())
            return sorted(done)

        assert run(0) == run(3)

    def test_busy_tracks_wall_time_with_residents(self):
        queue = PSQueue()
        queue.offer(0.0, 2.0, job=0)
        queue.advance_to(1.5)
        assert queue.busy == pytest.approx(1.5)
        queue.drain()
        assert queue.busy == pytest.approx(2.0)

    def test_state_roundtrip_mid_flight(self):
        queue = PSQueue()
        queue.offer(0.0, 2.0, job=0)
        queue.offer(1.0, 2.0, job=1)
        clone = PSQueue.restore(json.loads(json.dumps(queue.state_dict())))
        assert clone.drain() == queue.drain()


class TestBlockDigest:
    def test_split_invariance(self):
        rng = np.random.Generator(np.random.PCG64(11))
        data = rng.bytes(3 * BlockDigest.BLOCK + 777)
        whole = BlockDigest()
        whole.update(data)
        pieces = BlockDigest()
        cuts = [0, 1, 100, BlockDigest.BLOCK, 2 * BlockDigest.BLOCK + 13, len(data)]
        for lo, hi in zip(cuts, cuts[1:]):
            pieces.update(data[lo:hi])
        assert whole.hexdigest() == pieces.hexdigest()

    def test_hexdigest_does_not_mutate(self):
        digest = BlockDigest()
        digest.update(b"abc")
        first = digest.hexdigest()
        assert digest.hexdigest() == first
        digest.update(b"def")
        assert digest.hexdigest() != first

    def test_state_roundtrip_mid_block(self):
        digest = BlockDigest()
        digest.update(b"x" * (BlockDigest.BLOCK + 5))
        clone = BlockDigest.restore(json.loads(json.dumps(digest.state_dict())))
        digest.update(b"tail")
        clone.update(b"tail")
        assert digest.hexdigest() == clone.hexdigest()

    def test_different_content_differs(self):
        a, b = BlockDigest(), BlockDigest()
        a.update(b"hello")
        b.update(b"hellp")
        assert a.hexdigest() != b.hexdigest()


class TestConcurrencyHelpers:
    def test_time_average_simple(self):
        # One request in system over [0, 2), two over [2, 3), horizon 4.
        arrivals = np.asarray([0.0, 2.0])
        finishes = np.asarray([3.0, 4.0])
        assert time_average_in_system(arrivals, finishes) == pytest.approx(
            (1 * 2 + 2 * 1 + 1 * 1) / 4.0
        )

    def test_max_concurrent_counts_overlap(self):
        arrivals = np.asarray([0.0, 1.0, 1.5, 8.0])
        finishes = np.asarray([2.0, 3.0, 1.8, 9.0])
        assert max_concurrent(arrivals, finishes) == 3

    def test_back_to_back_does_not_overlap(self):
        # A finish at the same instant as an arrival has already left.
        arrivals = np.asarray([0.0, 1.0])
        finishes = np.asarray([1.0, 2.0])
        assert max_concurrent(arrivals, finishes) == 1

    def test_empty(self):
        empty = np.empty(0)
        assert time_average_in_system(empty, empty) == 0.0
        assert max_concurrent(empty, empty) == 0


class TestLittlesLaw:
    def test_identity_on_steady_state_poisson_run(self):
        # L = lambda * W with lambda = n / horizon and W the mean sojourn
        # is an exact identity when the horizon spans all records —
        # integrating the in-system count equals summing the sojourns.
        # Running it through the full fleet pins the record bookkeeping.
        mix = default_mix(seed=3)
        units = unit_seconds(mix.classes, ["thinkie"])[:, 0]
        weights = np.asarray([c.weight for c in mix.classes])
        rate = 0.7 / float(np.dot(weights / weights.sum(), units))
        sim = TrafficSim(
            PoissonProcess(rate=rate, seed=40),
            ["thinkie"],
            mix,
            engine=False,
            keep_records=True,
        )
        sim.run(40_000)
        records = sim.fleet.recorder.records()
        arrivals, finishes = records[:, 1], records[:, 3]
        left = time_average_in_system(arrivals, finishes)
        horizon = finishes.max() - arrivals.min()
        lam = len(records) / horizon
        mean_sojourn = float(np.mean(finishes - arrivals))
        assert left == pytest.approx(lam * mean_sojourn, rel=1e-9)
        # And the run really was a loaded steady-state queue.
        assert left > 1.0

    def test_pollaczek_khinchine_mean_wait(self):
        # Single M/G/1 FIFO server at utilisation rho: mean queue wait
        # must match lambda * E[S^2] / (2 (1 - rho)) with the service
        # moments computed from the mix (E[size^2] = 1 + cv^2 for the
        # mean-1 lognormal size factors).  Queue waits decorrelate over
        # ~1/(1-rho)^2 arrivals, so the effective sample size passed to
        # the tolerance helper is discounted accordingly.
        mix = default_mix(seed=8)
        units = unit_seconds(mix.classes, ["thinkie"])[:, 0]
        weights = np.asarray([c.weight for c in mix.classes])
        weights = weights / weights.sum()
        cv2 = np.asarray([c.size_cv for c in mix.classes]) ** 2
        es = float(np.dot(weights, units))
        es2 = float(np.dot(weights, units**2 * (1.0 + cv2)))
        rho = 0.7
        rate = rho / es
        n = 200_000
        sim = TrafficSim(
            PoissonProcess(rate=rate, seed=17), ["thinkie"], mix, engine=False
        )
        sim.run(n)
        mean_wait = sim.fleet.recorder.wait_total / n
        expected = rate * es2 / (2.0 * (1.0 - rho))
        assert_stat_close(mean_wait, expected, 0.1, n // 25, "P-K mean wait")


class TestClosedLoopBound:
    def test_concurrency_never_exceeds_clients(self):
        clients = 6
        sim = ClosedLoopSim(
            ["thinkie", "comet"],
            clients=clients,
            think=0.005,
            keep_records=True,
            seed=9,
        )
        sim.run(5_000)
        records = sim.fleet.recorder.records()
        peak = max_concurrent(records[:, 1], records[:, 3])
        assert 1 <= peak <= clients

    def test_single_client_is_strictly_serial(self):
        sim = ClosedLoopSim(["thinkie"], clients=1, think=0.01, keep_records=True, seed=2)
        sim.run(500)
        records = sim.fleet.recorder.records()
        assert max_concurrent(records[:, 1], records[:, 3]) == 1
        # With one client there is never queueing.
        assert sim.fleet.recorder.wait_max == 0.0
