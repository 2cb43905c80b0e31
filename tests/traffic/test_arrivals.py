"""Statistical property tests for the arrival-process generators.

Every assertion runs against a *seeded* stream, so these tests are
deterministic; tolerances come from ``assert_stat_close`` (see
conftest), which scales them with sample size.
"""

from __future__ import annotations

import json
import math

import numpy as np
import pytest

from conftest import assert_stat_close

from repro.core.errors import ConfigError
from repro.traffic.arrivals import (
    DiurnalProcess,
    MMPPProcess,
    PoissonProcess,
    TraceReplay,
    make_process,
    restore_process,
)


class TestPoisson:
    def test_interarrival_mean_matches_rate(self, poisson_process):
        n = 20_000
        gaps = np.diff(poisson_process.take(n))
        assert_stat_close(gaps.mean(), 1.0 / 100.0, 0.02, n, "interarrival mean")

    def test_coefficient_of_variation_is_one(self, poisson_process):
        n = 20_000
        gaps = np.diff(poisson_process.take(n))
        cv = gaps.std() / gaps.mean()
        assert_stat_close(cv, 1.0, 0.03, n, "interarrival CV")

    def test_ks_against_exponential_cdf(self, poisson_process):
        # One-sample Kolmogorov–Smirnov against F(x) = 1 - exp(-rate x);
        # 1.63/sqrt(n) is the alpha=0.01 critical value.
        n = 20_000
        gaps = np.sort(np.diff(poisson_process.take(n + 1)))
        theoretical = 1.0 - np.exp(-100.0 * gaps)
        empirical_hi = np.arange(1, n + 1) / n
        empirical_lo = np.arange(0, n) / n
        d_stat = max(
            np.max(empirical_hi - theoretical), np.max(theoretical - empirical_lo)
        )
        assert d_stat < 1.63 / math.sqrt(n), f"KS statistic {d_stat:.4f}"

    def test_strictly_increasing_and_positive(self, poisson_process):
        times = poisson_process.take(5000)
        assert times[0] > 0
        assert np.all(np.diff(times) > 0)

    def test_rejects_non_positive_rate(self):
        with pytest.raises(ConfigError, match="poisson rate must be a finite number > 0"):
            PoissonProcess(rate=0.0)


class TestMMPP:
    def test_burstiness_index_exceeds_one(self, mmpp_process):
        # Burstiness index = squared CV of interarrivals; a Poisson
        # stream sits at 1, rate modulation pushes it strictly above.
        gaps = np.diff(mmpp_process.take(30_000))
        index = float(gaps.var() / gaps.mean() ** 2)
        assert index > 1.5, f"burstiness index {index:.2f} not bursty"

    def test_mean_rate_matches_dwell_weighted_average(self, mmpp_process):
        # rates (20, 400) with mean dwells (8, 2) => long-run rate
        # (20*8 + 400*2) / (8 + 2) = 96 req/s.  The effective sample
        # size is the number of dwell *cycles* — rate modulation is the
        # slow process — not the arrival count.
        n = 60_000
        times = mmpp_process.take(n)
        cycles = int(times[-1] / (8.0 + 2.0))
        assert_stat_close(n / times[-1], 96.0, 0.02, cycles, "MMPP mean rate")

    def test_non_decreasing(self, mmpp_process):
        times = mmpp_process.take(10_000)
        assert np.all(np.diff(times) >= 0)

    def test_validation(self):
        with pytest.raises(ConfigError, match="matching non-empty"):
            MMPPProcess(rates=(1.0,), dwells=(1.0, 2.0))
        with pytest.raises(ConfigError, match="dwells entry must be a finite number > 0"):
            MMPPProcess(rates=(1.0, 2.0), dwells=(1.0, 0.0))


class TestDiurnal:
    def test_hourly_rate_ratios_match_modulation_curve(self):
        # Compress a "day" to 240 s so a few periods give dense bins;
        # 24 "hour" bins per period must reproduce the sinusoid.
        rate, amplitude, period, periods = 200.0, 0.8, 240.0, 4
        process = DiurnalProcess(
            rate=rate, amplitude=amplitude, period=period, seed=21
        )
        times = process.take(int(rate * period * periods * 1.15))
        horizon = period * periods
        assert times[-1] > horizon, "undersampled the requested periods"
        times = times[times < horizon]
        bins = 24
        width = period / bins
        counts, _ = np.histogram(times % period, bins=bins, range=(0.0, period))
        edges = np.arange(bins + 1) * width
        # Exact integral of the modulated rate over each bin.
        anti = -np.cos(2.0 * math.pi * edges / period) * period / (2.0 * math.pi)
        expected = rate * periods * (width + amplitude * np.diff(anti))
        for b in range(bins):
            assert_stat_close(
                float(counts[b]),
                float(expected[b]),
                0.35,
                int(expected[b]),
                f"hour-bin {b} count",
            )

    def test_peak_to_trough_ratio(self):
        process = DiurnalProcess(rate=300.0, amplitude=0.8, period=120.0, seed=3)
        times = process.take(200_000)
        phase = (times % 120.0) / 120.0
        peak = np.sum((phase > 0.15) & (phase < 0.35))  # around sin max
        trough = np.sum((phase > 0.65) & (phase < 0.85))  # around sin min
        # Rate ratio (1+a)/(1-a) = 9 for a=0.8; bin averaging softens it.
        assert peak / trough > 4.0, f"peak/trough {peak / trough:.2f}"

    def test_rate_at(self, diurnal_process):
        assert diurnal_process.rate_at(0.0) == pytest.approx(100.0)
        assert diurnal_process.rate_at(86400.0 / 4) == pytest.approx(180.0)
        assert diurnal_process.rate_at(3 * 86400.0 / 4) == pytest.approx(20.0)

    def test_validation(self):
        with pytest.raises(ConfigError, match="amplitude"):
            DiurnalProcess(rate=10.0, amplitude=1.0)


class TestTraceReplay:
    def test_replays_exact_times(self):
        trace = np.asarray([0.1, 0.5, 0.7, 1.4, 2.0])
        process = TraceReplay(trace)
        assert np.array_equal(process.take(2), [0.1, 0.5])
        assert np.array_equal(process.take(3), [0.7, 1.4, 2.0])

    def test_exhaustion_raises(self):
        process = TraceReplay([0.0, 1.0])
        process.take(2)
        with pytest.raises(ValueError, match="exhausted"):
            process.take(1)

    def test_rejects_unsorted(self):
        with pytest.raises(ValueError, match="non-decreasing"):
            TraceReplay([1.0, 0.5])


@pytest.mark.parametrize(
    "factory",
    [
        lambda: PoissonProcess(rate=250.0, seed=5),
        lambda: MMPPProcess(rates=(30.0, 300.0), dwells=(4.0, 1.0), seed=5),
        lambda: DiurnalProcess(rate=120.0, amplitude=0.6, period=600.0, seed=5),
    ],
    ids=["poisson", "mmpp", "diurnal"],
)
class TestStreamInvariants:
    def test_chunking_invariance(self, factory):
        whole = factory().take(4000)
        process = factory()
        pieces = [process.take(k) for k in (1, 999, 1500, 1500)]
        assert np.array_equal(whole, np.concatenate(pieces))

    def test_checkpoint_restore_resumes_bit_exact(self, factory):
        reference = factory().take(4000)
        process = factory()
        head = process.take(1500)
        state = json.loads(json.dumps(process.state_dict()))
        resumed = restore_process(state)
        tail = resumed.take(2500)
        assert np.array_equal(reference, np.concatenate([head, tail]))


class TestSpecParsing:
    def test_poisson_spec(self):
        process = make_process("poisson:rate=500", seed=3)
        assert isinstance(process, PoissonProcess)
        assert process.rate == 500.0
        assert process.seed == 3

    def test_mmpp_spec_with_lists(self):
        process = make_process("mmpp:rates=50/500,dwells=10/2")
        assert process.rates == [50.0, 500.0]
        assert process.dwells == [10.0, 2.0]

    def test_diurnal_spec(self):
        process = make_process("diurnal:rate=200,amplitude=0.8,period=3600")
        assert (process.rate, process.amplitude, process.period) == (200.0, 0.8, 3600.0)

    def test_trace_spec_loads_file(self, tmp_path):
        path = tmp_path / "trace.txt"
        path.write_text("0.5\n1.5\n2.5\n")
        process = make_process(f"trace:{path}")
        assert np.array_equal(process.take(3), [0.5, 1.5, 2.5])

    def test_unknown_kind_raises(self):
        with pytest.raises(ConfigError, match="unknown arrival process"):
            make_process("weibull:rate=1")

    def test_bad_option_raises(self):
        with pytest.raises(ConfigError, match="bad process option"):
            make_process("poisson:rate")

    def test_trace_restore_requires_trace(self):
        process = TraceReplay([0.0, 1.0, 2.0])
        process.take(1)
        state = process.state_dict()
        with pytest.raises(ValueError, match="requires the original trace"):
            restore_process(state)
        resumed = restore_process(state, trace=[0.0, 1.0, 2.0])
        assert np.array_equal(resumed.take(2), [1.0, 2.0])
