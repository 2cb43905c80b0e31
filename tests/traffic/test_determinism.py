"""Determinism goldens: seed identity, chunking invariance, checkpointing.

Every golden compares *digests* — the blake2b chain over the latency
record byte stream and the engine-ledger fingerprint — so a pass means
bit-identical results, not just statistically similar ones.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.traffic.sim import AutoscalePolicy, ClosedLoopSim, TrafficSim


def _digests(report):
    return report["latency_digest"], report["ledger_digest"]


def _sim(spec="poisson:rate=300", *, seed=11, machines=("thinkie", "comet"), **kw):
    kw.setdefault("engine", True)
    return TrafficSim(spec, list(machines), seed=seed, **kw)


class TestSeedIdentity:
    def test_same_seed_same_digests(self):
        a = _sim().run(3_000)
        b = _sim().run(3_000)
        assert _digests(a) == _digests(b)
        assert a["latency"] == b["latency"]
        assert a["ledger"] == b["ledger"]

    def test_different_seed_differs(self):
        a = _sim(seed=11).run(2_000)
        b = _sim(seed=12).run(2_000)
        assert a["latency_digest"] != b["latency_digest"]
        assert a["ledger_digest"] != b["ledger_digest"]

    def test_closed_loop_same_seed_same_digest(self):
        def run():
            return ClosedLoopSim(
                ["thinkie", "comet"], clients=8, think=0.01, engine=True, seed=4
            ).run(2_000)

        a, b = run(), run()
        assert _digests(a) == _digests(b)

    @pytest.mark.parametrize("discipline", ["fifo", "ps"])
    def test_noise_seed_changes_ledger_not_latency(self, discipline):
        base = _sim(discipline=discipline).run(1_000)
        noisy = _sim(discipline=discipline, noise_seed=123).run(1_000)
        noisy2 = _sim(discipline=discipline, noise_seed=123).run(1_000)
        # Queue latencies come from the analytic predictor — unaffected.
        assert base["latency_digest"] == noisy["latency_digest"]
        # The engine ledger sees the noise model, deterministically.
        assert noisy["ledger_digest"] == noisy2["ledger_digest"]


class TestChunkingInvariance:
    @pytest.mark.parametrize("discipline", ["fifo", "ps"])
    def test_one_big_chunk_vs_many_small(self, discipline):
        whole = _sim(discipline=discipline).run(3_000, chunk=3_000)
        tiny = _sim(discipline=discipline).run(3_000, chunk=77)
        assert _digests(whole) == _digests(tiny)

    def test_chunk_of_one(self):
        whole = _sim(machines=("thinkie",)).run(300, chunk=300)
        single = _sim(machines=("thinkie",)).run(300, chunk=1)
        assert _digests(whole) == _digests(single)

    def test_uneven_feed_calls(self):
        a = _sim()
        a.feed(1_000)
        a.feed(2_000)
        b = _sim()
        for k in (1, 999, 1_500, 500):
            b.feed(k, chunk=257)
        assert _digests(a.finish()) == _digests(b.finish())

    def test_autoscale_decisions_chunk_invariant(self):
        policy = AutoscalePolicy(slo_p99=0.05, max_machines=4, every=1_000)
        a = _sim("poisson:rate=500", machines=("thinkie",), autoscale=policy)
        b = _sim("poisson:rate=500", machines=("thinkie",), autoscale=policy)
        ra = a.run(8_000, chunk=8_000)
        rb = b.run(8_000, chunk=123)
        assert ra["autoscale_events"] == rb["autoscale_events"]
        assert _digests(ra) == _digests(rb)
        assert ra["autoscale_events"], "policy never fired; golden is vacuous"


class TestCheckpointRestore:
    @pytest.mark.parametrize(
        "kw",
        [
            {},
            {"discipline": "ps"},
            {"spec": "mmpp:rates=50/600,dwells=4/1"},
            {"spec": "diurnal:rate=300,amplitude=0.7,period=600"},
            {"noise_seed": 99},
        ],
        ids=["fifo", "ps", "mmpp", "diurnal", "noisy"],
    )
    def test_mid_trace_resume_is_bit_exact(self, kw):
        kw = dict(kw)
        spec = kw.pop("spec", "poisson:rate=300")
        straight = _sim(spec, **kw).run(2_400)
        split = _sim(spec, **kw)
        split.feed(1_100)
        state = json.loads(json.dumps(split.checkpoint()))
        resumed = TrafficSim.restore(state)
        resumed.feed(1_300)
        assert _digests(resumed.finish()) == _digests(straight)

    def test_autoscale_state_survives_checkpoint(self):
        policy = AutoscalePolicy(slo_p99=0.05, max_machines=4, every=1_000)

        def fresh():
            return _sim("poisson:rate=500", machines=("thinkie",), autoscale=policy)

        straight = fresh().run(8_000)
        split = fresh()
        split.feed(3_500)  # mid-window, clones already minted
        state = json.loads(json.dumps(split.checkpoint()))
        resumed = TrafficSim.restore(state)
        resumed.feed(4_500)
        report = resumed.finish()
        assert report["autoscale_events"] == straight["autoscale_events"]
        assert _digests(report) == _digests(straight)

    def test_trace_replay_checkpoint_needs_trace(self, tmp_path):
        rng = np.random.Generator(np.random.PCG64(0))
        trace = np.cumsum(rng.exponential(1 / 200.0, 3_000))
        path = tmp_path / "trace.npy"
        np.save(path, trace)
        straight = _sim(f"trace:{path}").run(3_000)
        split = _sim(f"trace:{path}")
        split.feed(1_234)
        state = json.loads(json.dumps(split.checkpoint()))
        with pytest.raises(ValueError, match="requires the original trace"):
            TrafficSim.restore(state)
        resumed = TrafficSim.restore(state, trace=trace)
        resumed.feed(3_000 - 1_234)
        assert _digests(resumed.finish()) == _digests(straight)

    def test_checkpoint_refuses_after_finish(self):
        sim = _sim(machines=("thinkie",), engine=False)
        sim.run(200)
        with pytest.raises(RuntimeError, match="finished"):
            sim.checkpoint()

    def test_feed_refuses_after_finish(self):
        sim = _sim(machines=("thinkie",), engine=False)
        sim.run(200)
        with pytest.raises(RuntimeError, match="finished"):
            sim.feed(10)

    def test_restore_rejects_unknown_version(self):
        sim = _sim(machines=("thinkie",), engine=False)
        sim.feed(100)
        state = sim.checkpoint()
        state["version"] = 99
        with pytest.raises(ValueError, match="version"):
            TrafficSim.restore(state)

    @pytest.mark.parametrize(
        "field, value",
        [("fleet", None), ("process", {}), ("window", []), ("autoscale", [1]),
         ("n_done", "many"), ("wall", None), ("events", 3)],
    )
    def test_restore_names_a_malformed_field(self, field, value):
        sim = _sim(machines=("thinkie",))
        sim.feed(100)
        state = json.loads(json.dumps(sim.checkpoint()))
        state[field] = value
        with pytest.raises(ValueError, match=f"field '{field}'"):
            TrafficSim.restore(state)

    def test_restore_names_a_missing_field(self):
        sim = _sim(machines=("thinkie",))
        sim.feed(100)
        state = sim.checkpoint()
        del state["fleet"]
        with pytest.raises(ValueError, match="field 'fleet'"):
            TrafficSim.restore(state)
