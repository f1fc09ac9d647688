"""Unit tests for the analytic WARS predictor."""

from __future__ import annotations

import pickle
import sys
import threading
import time

import numpy as np
import pytest

import repro.analytic.predictor as predictor_module
from repro.analytic.predictor import AnalyticPredictor
from repro.core.quorum import ReplicaConfig
from repro.exceptions import ConfigurationError
from repro.latency.distributions import ExponentialLatency
from repro.latency.empirical import EmpiricalDistribution
from repro.latency.production import WARSDistributions, lnkd_ssd, wan


@pytest.fixture(scope="module")
def fig4_slow_write() -> AnalyticPredictor:
    """The figure-4 1:0.10 environment: W mean 10 ms, A=R=S mean 1 ms."""
    distributions = WARSDistributions.write_specialised(
        write=ExponentialLatency(rate=0.1),
        other=ExponentialLatency(rate=1.0),
        name="fig4-1:0.10",
    )
    return AnalyticPredictor(distributions=distributions)


class TestAnalyticPredictor:
    def test_strict_quorum_is_always_consistent(self, fig4_slow_write):
        result = fig4_slow_write.result(ReplicaConfig(n=3, r=2, w=2))
        assert result.consistency_probability(0.0) == 1.0
        assert result.t_visibility(0.999) == 0.0

    def test_consistency_increases_with_t(self, fig4_slow_write):
        result = fig4_slow_write.result(ReplicaConfig(n=3, r=1, w=1))
        curve = [p for _, p in result.consistency_curve((0.0, 1.0, 10.0, 100.0))]
        assert curve == sorted(curve)
        assert curve[-1] > 0.999

    def test_larger_quorums_are_fresher(self, fig4_slow_write):
        base = fig4_slow_write.consistency_probability(ReplicaConfig(3, 1, 1), 0.0)
        more_reads = fig4_slow_write.consistency_probability(ReplicaConfig(3, 2, 1), 0.0)
        more_writes = fig4_slow_write.consistency_probability(ReplicaConfig(3, 1, 2), 0.0)
        assert more_reads > base
        assert more_writes > base

    def test_matches_monte_carlo_at_commit(self, fig4_slow_write):
        """The figure-4 slow-write anchor: P(consistent at t=0) ~ 0.42."""
        result = fig4_slow_write.result(ReplicaConfig(n=3, r=1, w=1))
        from repro.core.wars import WARSModel

        model = WARSModel(
            distributions=fig4_slow_write.distributions, config=ReplicaConfig(3, 1, 1)
        )
        sampled = model.sample(50_000, np.random.default_rng(0))
        assert result.consistency_probability(0.0) == pytest.approx(
            sampled.consistency_probability(0.0), abs=0.01
        )

    def test_t_visibility_inverts_consistency(self, fig4_slow_write):
        result = fig4_slow_write.result(ReplicaConfig(n=3, r=1, w=1))
        for target in (0.9, 0.99, 0.999):
            t = result.t_visibility(target)
            assert result.consistency_probability(t) == pytest.approx(target, abs=1e-3)

    def test_latency_percentiles_monotone_in_quorum_size(self, fig4_slow_write):
        p99_r1 = fig4_slow_write.result(ReplicaConfig(3, 1, 1)).read_latency_percentile(99.0)
        p99_r3 = fig4_slow_write.result(ReplicaConfig(3, 3, 1)).read_latency_percentile(99.0)
        assert p99_r3 > p99_r1

    def test_sweep_matches_exact_point_queries(self, fig4_slow_write):
        configs = (ReplicaConfig(3, 1, 1), ReplicaConfig(3, 2, 1))
        times = (0.0, 1.0, 10.0, 100.0)
        swept = fig4_slow_write.sweep(configs, times_ms=times)
        for config, summary in zip(configs, swept):
            exact = fig4_slow_write.result(config)
            for t, p in summary.curve:
                # The sweep's atom-compressed quadrature must stay within a
                # fraction of the 1% validation budget of the exact path.
                assert p == pytest.approx(exact.consistency_probability(t), abs=2e-3)
            for target, t_vis in summary.t_visibility_ms.items():
                assert t_vis == pytest.approx(max(exact.t_visibility(target), 1e-3), rel=0.05, abs=0.1)

    def test_sweep_populates_summaries(self, fig4_slow_write):
        (summary,) = fig4_slow_write.sweep(
            (ReplicaConfig(3, 1, 1),), times_ms=(0.0, 10.0)
        )
        assert summary.curve is not None and len(summary.curve) == 2
        assert set(summary.t_visibility_ms) == {0.99, 0.999}
        assert summary.read_latency_ms[50.0] <= summary.read_latency_ms[99.9]

    def test_environment_shared_across_queries(self, fig4_slow_write):
        assert fig4_slow_write.environment is fig4_slow_write.environment

    def test_rejects_per_replica_wan_model(self):
        with pytest.raises(ConfigurationError, match="i.i.d."):
            AnalyticPredictor(distributions=wan()).environment

    def test_rejects_negative_time(self, fig4_slow_write):
        result = fig4_slow_write.result(ReplicaConfig(3, 1, 1))
        with pytest.raises(ConfigurationError):
            result.consistency_probability(-1.0)

    def test_rejects_bad_target_probability(self, fig4_slow_write):
        result = fig4_slow_write.result(ReplicaConfig(3, 1, 1))
        with pytest.raises(ConfigurationError):
            result.t_visibility(0.0)

    def test_production_fit_commit_consistency(self):
        """LNKD-SSD at (3,1,1) is ~97-98% consistent at commit (paper §5.6)."""
        predictor = AnalyticPredictor(distributions=lnkd_ssd())
        probability = predictor.consistency_probability(ReplicaConfig(3, 1, 1), 0.0)
        assert 0.95 < probability < 0.99


def empirical_wars(seed: int = 0) -> WARSDistributions:
    """Four empirical legs of reservoir size, as a serving refit builds them."""
    rng = np.random.default_rng(seed)
    legs = [EmpiricalDistribution(rng.exponential(mean, 8_192)) for mean in (4, 1, 2, 3)]
    return WARSDistributions(w=legs[0], a=legs[1], r=legs[2], s=legs[3])


class TestEnvironmentBuild:
    def test_empirical_build_makes_no_scalar_ppf_calls(self, monkeypatch):
        calls = []
        original = EmpiricalDistribution.ppf
        monkeypatch.setattr(
            EmpiricalDistribution,
            "ppf",
            lambda self, q: calls.append(q) or original(self, q),
        )
        predictor = AnalyticPredictor(distributions=empirical_wars())
        assert 0.0 < predictor.consistency_probability(ReplicaConfig(3, 1, 1), 1.0) < 1.0
        assert calls == []

    def test_concurrent_first_queries_build_once(self, monkeypatch):
        built = []
        real = predictor_module.AnalyticEnvironment

        def slow_environment(**kwargs):
            # Widen the race: every thread is past its cache check before
            # the first build could finish.
            time.sleep(0.05)
            built.append(kwargs)
            return real(**kwargs)

        monkeypatch.setattr(predictor_module, "AnalyticEnvironment", slow_environment)
        predictor = AnalyticPredictor(distributions=empirical_wars(1))
        threads = 8
        barrier = threading.Barrier(threads)
        environments = []

        def first_query():
            barrier.wait()
            environments.append(predictor.result(ReplicaConfig(3, 1, 1)).environment)

        workers = [threading.Thread(target=first_query) for _ in range(threads)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(worker.is_alive() for worker in workers)
        assert len(built) == 1
        assert len(environments) == threads
        assert all(env is environments[0] for env in environments)

    def test_cold_builds_of_different_predictors_overlap(self, monkeypatch):
        real = predictor_module.AnalyticEnvironment
        both_building = threading.Barrier(2, timeout=10)

        def rendezvous_environment(**kwargs):
            # Returns only once the other predictor's build has started too;
            # one lock for all predictors would break the barrier.
            both_building.wait()
            return real(**kwargs)

        monkeypatch.setattr(predictor_module, "AnalyticEnvironment", rendezvous_environment)
        predictors = [AnalyticPredictor(distributions=empirical_wars(seed)) for seed in (2, 3)]
        errors = []

        def first_query(predictor):
            try:
                predictor.result(ReplicaConfig(3, 1, 1))
            except threading.BrokenBarrierError as error:
                errors.append(error)

        workers = [threading.Thread(target=first_query, args=(p,)) for p in predictors]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(timeout=60)
        assert not any(worker.is_alive() for worker in workers)
        assert errors == []
        assert predictor_module._BUILD_LOCKS == {}

    def test_predictor_stays_picklable_and_comparable(self):
        predictor = AnalyticPredictor(
            distributions=WARSDistributions.write_specialised(
                write=ExponentialLatency(rate=0.5), other=ExponentialLatency(rate=1.0)
            )
        )
        before = predictor.consistency_probability(ReplicaConfig(3, 1, 1), 0.0)
        clone = pickle.loads(pickle.dumps(predictor))
        assert clone == predictor
        assert clone.consistency_probability(ReplicaConfig(3, 1, 1), 0.0) == before
