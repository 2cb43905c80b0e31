"""Fleet mechanics: recorder ordering, histogram, dispatch, scaling, ledger."""

from __future__ import annotations

import json
import tracemalloc

import numpy as np
import pytest

from repro.core.errors import ConfigError
from repro.traffic.fleet import Fleet, LatencyHistogram, LatencyRecorder
from repro.traffic.sim import AutoscalePolicy, TrafficSim
from repro.traffic.workload import default_mix


class TestLatencyHistogram:
    def test_quantiles_bracket_true_values(self):
        hist = LatencyHistogram()
        values = np.geomspace(1e-3, 1.0, 10_001)
        hist.observe_many(values)
        # Log-spaced bins are ~6% wide; quantiles land within a bin.
        assert hist.quantile(0.5) == pytest.approx(np.quantile(values, 0.5), rel=0.07)
        assert hist.quantile(0.99) == pytest.approx(np.quantile(values, 0.99), rel=0.07)
        assert hist.mean == pytest.approx(values.mean())
        assert hist.min == pytest.approx(1e-3)
        assert hist.max == pytest.approx(1.0)

    def test_out_of_range_clamps(self):
        hist = LatencyHistogram()
        hist.observe_many(np.asarray([1e-12, 1e9]))
        assert hist.count == 2
        assert hist.counts[0] == 1 and hist.counts[-1] == 1

    def test_empty(self):
        hist = LatencyHistogram()
        assert hist.quantile(0.99) == 0.0
        assert hist.mean == 0.0

    def test_state_roundtrip(self):
        hist = LatencyHistogram()
        hist.observe_many(np.asarray([0.01, 0.5, 2.0]))
        clone = LatencyHistogram.restore(json.loads(json.dumps(hist.state_dict())))
        assert clone.quantile(0.5) == hist.quantile(0.5)
        assert clone.count == hist.count
        assert clone.min == hist.min


class TestLatencyRecorder:
    @staticmethod
    def _fill_in_order(recorder, n=10):
        ids = np.arange(n, dtype=np.float64)
        recorder.add_batch(
            0, ids * 0.1, ids * 0.1, ids * 0.1 + 0.05,
            np.zeros(n), np.zeros(n), np.ones(n),
        )

    def test_out_of_order_adds_match_in_order_digest(self):
        a = LatencyRecorder()
        self._fill_in_order(a)
        b = LatencyRecorder()
        order = [3, 0, 1, 2, 7, 9, 8, 4, 6, 5]
        for rid in order:
            b.add(rid, rid * 0.1, rid * 0.1, rid * 0.1 + 0.05, 0, 0, 1.0)
        assert a.digest.hexdigest() == b.digest.hexdigest()
        assert a.emitted == b.emitted == 10
        assert not b._pending

    def test_add_batch_fast_path_matches_slow_path(self):
        n = 64
        rng = np.random.Generator(np.random.PCG64(0))
        arrivals = np.sort(rng.random(n))
        starts = arrivals + rng.random(n) * 0.1
        finishes = starts + rng.random(n) * 0.1
        machines = rng.integers(0, 3, n)
        classes = rng.integers(0, 2, n)
        sizes = rng.random(n) + 0.5
        fast = LatencyRecorder()
        fast.add_batch(0, arrivals, starts, finishes, machines, classes, sizes)
        slow = LatencyRecorder()
        for j in range(n):
            slow.add(
                j, float(arrivals[j]), float(starts[j]), float(finishes[j]),
                int(machines[j]), int(classes[j]), float(sizes[j]),
            )
        assert fast.digest.hexdigest() == slow.digest.hexdigest()
        assert fast.wait_total == pytest.approx(slow.wait_total)

    def test_records_requires_keep(self):
        recorder = LatencyRecorder()
        with pytest.raises(ValueError, match="keep_records"):
            recorder.records()

    def test_kept_records_shape(self):
        recorder = LatencyRecorder(keep_records=True)
        self._fill_in_order(recorder, n=5)
        records = recorder.records()
        assert records.shape == (5, 7)
        assert np.array_equal(records[:, 0], np.arange(5))

    def test_state_roundtrip_with_pending(self):
        recorder = LatencyRecorder()
        recorder.add(1, 0.1, 0.1, 0.2, 0, 0, 1.0)  # held: id 0 missing
        state = json.loads(json.dumps(recorder.state_dict()))
        clone = LatencyRecorder.restore(state)
        recorder.add(0, 0.0, 0.0, 0.1, 0, 0, 1.0)
        clone.add(0, 0.0, 0.0, 0.1, 0, 0, 1.0)
        assert clone.digest.hexdigest() == recorder.digest.hexdigest()
        assert clone.emitted == recorder.emitted == 2


def _arrivals(n, gap=0.001):
    return np.arange(1, n + 1, dtype=np.float64) * gap


class TestFleetDispatch:
    def test_rr_cycles_over_machines(self):
        mix = default_mix(seed=0)
        fleet = Fleet(["thinkie", "comet"], mix, dispatch="rr", engine=False)
        times = _arrivals(10)
        classes, sizes = mix.draw(10)
        fleet.offer(times, classes, sizes, 0)
        counts = fleet.request_counts()
        assert counts["thinkie"] == 5 and counts["comet"] == 5

    def test_eft_picks_per_class_fastest_when_idle(self):
        from repro.traffic.workload import unit_seconds  # noqa: PLC0415 (lazy)

        mix = default_mix(seed=1)
        fleet = Fleet(
            ["thinkie", "comet"], mix, dispatch="eft", engine=False,
            keep_records=True,
        )
        times = _arrivals(200, gap=1.0)  # sparse: no queueing pressure
        classes, sizes = mix.draw(200)
        fleet.offer(times, classes, sizes, 0)
        # With idle queues and zero alloc cost, EFT reduces to the
        # per-class fastest machine — the planner's unit-cost argmin.
        units = unit_seconds(mix.classes, [s.spec for s in fleet._servers])
        records = fleet.recorder.records()
        expected = np.argmin(units, axis=1)[records[:, 5].astype(int)]
        assert np.array_equal(records[:, 4].astype(int), expected)

    def test_ps_discipline_completes_everything(self):
        mix = default_mix(seed=2)
        fleet = Fleet(["thinkie"], mix, discipline="ps", engine=False)
        n = 500
        classes, sizes = mix.draw(n)
        fleet.offer(_arrivals(n), classes, sizes, 0)
        fleet.drain()
        assert fleet.recorder.emitted == n
        assert not fleet._inflight

    def test_validation(self):
        mix = default_mix(seed=0)
        with pytest.raises(ConfigError, match="at least one machine"):
            Fleet([], mix)
        with pytest.raises(ConfigError, match="discipline"):
            Fleet(["thinkie"], mix, discipline="lifo")
        with pytest.raises(ConfigError, match="dispatch"):
            Fleet(["thinkie"], mix, dispatch="random")
        with pytest.raises(ConfigError, match="alloc_cost"):
            Fleet(["thinkie"], mix, alloc_cost=-1.0)

    def test_alloc_cost_floors_latency(self):
        mix = default_mix(seed=3)
        fleet = Fleet(["thinkie"], mix, alloc_cost=0.5, engine=False, keep_records=True)
        classes, sizes = mix.draw(10)
        fleet.offer(_arrivals(10, gap=10.0), classes, sizes, 0)
        records = fleet.recorder.records()
        assert np.all(records[:, 3] - records[:, 2] >= 0.5)


class TestFleetScaling:
    def _fleet(self):
        return Fleet(["thinkie", "comet"], default_mix(seed=0), engine=False)

    def test_scale_up_clones_least_replicated(self):
        fleet = self._fleet()
        assert fleet.scale_up() == "comet#1"  # tie broken by name
        assert fleet.scale_up() == "thinkie#1"
        assert fleet.scale_up() == "comet#2"
        assert fleet.active_count == 5

    def test_scale_down_retires_newest_clone_only(self):
        fleet = self._fleet()
        fleet.scale_up()
        fleet.scale_up()
        assert fleet.scale_down() == "thinkie#1"
        assert fleet.scale_down() == "comet#1"
        # Base machines never retire.
        assert fleet.scale_down() is None
        assert fleet.active_count == 2

    def test_scale_up_reactivates_drained_clone(self):
        fleet = self._fleet()
        first = fleet.scale_up()
        fleet.scale_down()
        assert fleet.scale_up() == first
        assert len(fleet.machine_names) == 3  # no second clone minted

    def test_retired_machine_gets_no_new_work(self):
        fleet = self._fleet()
        clone = fleet.scale_up()
        fleet.scale_down()
        mix = fleet.mix
        classes, sizes = mix.draw(50)
        fleet.offer(_arrivals(50), classes, sizes, 0)
        assert fleet.request_counts()[clone] == 0


class TestEngineLedger:
    def test_ledger_totals_accumulate_per_stream(self):
        mix = default_mix(seed=4)
        fleet = Fleet(["thinkie"], mix, engine=True)
        n = 300
        classes, sizes = mix.draw(n)
        fleet.offer(_arrivals(n), classes, sizes, 0)
        totals = fleet.ledger_totals()
        assert totals, "no engine streams opened"
        for key, counters in totals.items():
            assert key.startswith("thinkie|")
            assert counters.get("cpu.instructions", 0.0) > 0
        # Every class that appeared got its own stream.
        seen = {mix.classes[c].name for c in np.unique(classes)}
        assert {k.split("|", 1)[1] for k in totals} == seen

    def test_ledger_digest_stable_and_content_sensitive(self):
        def run(n):
            fleet = Fleet(["thinkie"], mix := default_mix(seed=4), engine=True)
            classes, sizes = mix.draw(n)
            fleet.offer(_arrivals(n), classes, sizes, 0)
            return fleet.ledger_digest()

        assert run(100) == run(100)
        assert run(100) != run(101)

    def test_engine_off_has_empty_ledger(self):
        mix = default_mix(seed=4)
        fleet = Fleet(["thinkie"], mix, engine=False)
        classes, sizes = mix.draw(10)
        fleet.offer(_arrivals(10), classes, sizes, 0)
        assert fleet.ledger_totals() == {}


class TestAutoscale:
    def test_policy_validation(self):
        with pytest.raises(ConfigError, match="slo_p99"):
            AutoscalePolicy(slo_p99=0.0, max_machines=4)
        with pytest.raises(ConfigError, match="max_machines"):
            AutoscalePolicy(slo_p99=1.0, max_machines=0)
        with pytest.raises(ConfigError, match="every"):
            AutoscalePolicy(slo_p99=1.0, max_machines=4, every=0)
        with pytest.raises(ConfigError, match="scale_down_margin"):
            AutoscalePolicy(slo_p99=1.0, max_machines=4, scale_down_margin=1.0)

    def test_overloaded_fleet_scales_up_to_latency_relief(self):
        # Offered load ~2x one machine's capacity: the policy must grow
        # the fleet, and the post-scale window p99 must drop.
        sim = TrafficSim(
            "poisson:rate=400",
            ["thinkie"],
            engine=False,
            autoscale=AutoscalePolicy(slo_p99=0.05, max_machines=4, every=2000),
            seed=5,
        )
        report = sim.run(20_000)
        ups = [e for e in report["autoscale_events"] if e["action"] == "up"]
        assert ups, "saturated fleet never scaled up"
        assert sim.fleet.active_count > 1
        assert report["latency"]["p99"] > 0

    def test_underloaded_fleet_scales_back_down(self):
        sim = TrafficSim(
            "poisson:rate=5",
            ["thinkie"],
            engine=False,
            autoscale=AutoscalePolicy(
                slo_p99=10.0, max_machines=4, every=1000, cooldown=0
            ),
            seed=6,
        )
        sim.fleet.scale_up()  # pretend an earlier burst grew the fleet
        report = sim.run(5_000)
        downs = [e for e in report["autoscale_events"] if e["action"] == "down"]
        assert downs, "idle clone never retired"
        assert sim.fleet.active_count == 1

    def test_never_exceeds_max_machines(self):
        sim = TrafficSim(
            "poisson:rate=2000",
            ["thinkie"],
            engine=False,
            autoscale=AutoscalePolicy(slo_p99=0.01, max_machines=3, every=500),
            seed=7,
        )
        sim.run(10_000)
        assert sim.fleet.active_count <= 3

    def test_report_fields_present(self):
        report = TrafficSim("poisson:rate=50", ["thinkie"], engine=False, seed=1).run(
            2_000
        )
        d = report.to_dict()
        for key in (
            "requests", "horizon", "offered_rate", "throughput", "latency",
            "wait", "machines", "latency_digest", "ledger_digest",
            "sim_requests_per_sec",
        ):
            assert key in d
        assert d["requests"] == 2_000
        assert 0 < d["latency"]["p50"] <= d["latency"]["p99"]
        assert "thinkie" in report.table()


def _feed_peak(requests: int) -> int:
    """Traced peak bytes of feeding ``requests`` Poisson arrivals through
    a two-machine fleet in 2 048-request chunks."""
    sim = TrafficSim("poisson:rate=2000", ["thinkie", "comet"])
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        sim.feed(requests, chunk=2_048)
        return tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()


def test_the_traffic_peak_does_not_grow_with_the_requests():
    """A fleet keeps its histograms and ledger totals, not its requests,
    so four times the requests peak at about one chunk's memory: 1.06 MB
    on 8 192 and 1.18 MB on 32 768 (1.1×).  A fleet that kept every
    latency record (``keep_records=True``) read 1.49 MB and 2.93 MB
    (2.0×)."""
    _feed_peak(2_048)  # warm-up: first-use allocations are not the fleet
    small = _feed_peak(8_192)
    large = _feed_peak(32_768)
    assert large < 1.5 * small, (small, large)
