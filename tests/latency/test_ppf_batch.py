"""``ppf_batch``: one guard for every family, and table-backed ladders in one call.

Every distribution answers a quantile ladder through ``ppf_batch``; the
analytic predictor tabulates its legs that way.  A ``q`` outside ``[0, 1]``,
NaN included, must raise :class:`DistributionError` whichever path the
family takes (closed-form point loop, sampling fallback, or a table-backed
override).  Empirical and quantile-table legs answer the whole ladder in one
numpy call, and that answer must equal the per-point ``ppf`` bit for bit.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.analytic.grid import LatencyGrid, quantile_ladder
from repro.exceptions import DistributionError
from repro.latency.composite import PerReplicaLatency
from repro.latency.distributions import (
    ConstantLatency,
    ExponentialLatency,
    LogNormalLatency,
    NormalLatency,
    ParetoLatency,
    ScaledLatency,
    ShiftedLatency,
    UniformLatency,
)
from repro.latency.empirical import EmpiricalDistribution, QuantileTableDistribution
from repro.latency.mixture import pareto_exponential_mixture

FAMILIES = {
    "exponential": lambda: ExponentialLatency(0.5),
    "pareto": lambda: ParetoLatency(xm=1.0, alpha=2.0),
    "uniform": lambda: UniformLatency(1.0, 3.0),
    "normal": lambda: NormalLatency(5.0, 1.0),
    "lognormal": lambda: LogNormalLatency(0.5, 0.4),
    "constant": lambda: ConstantLatency(2.0),
    "shifted": lambda: ShiftedLatency(ExponentialLatency(1.0), 3.0),
    "scaled": lambda: ScaledLatency(ExponentialLatency(1.0), 2.0),
    "mixture": lambda: pareto_exponential_mixture(0.9, 1.0, 3.0, 0.1),
    "per-replica": lambda: PerReplicaLatency(
        (ExponentialLatency(10.0), ExponentialLatency(20.0))
    ),
    "empirical": lambda: EmpiricalDistribution(np.array([1.0, 2.0, 2.0, 7.0])),
    "quantile-table": lambda: QuantileTableDistribution.from_percentiles(
        [(50.0, 2.0), (99.0, 9.0)], minimum=0.5, maximum=20.0
    ),
}


@pytest.mark.parametrize("family", sorted(FAMILIES))
class TestQuantileGuard:
    @pytest.mark.parametrize("bad", [math.nan, -0.1, 1.5, -math.inf, math.inf])
    def test_batch_rejects_out_of_range(self, family, bad):
        dist = FAMILIES[family]()
        with pytest.raises(DistributionError):
            dist.ppf_batch([0.5, bad])

    def test_scalar_and_batch_agree_on_nan(self, family):
        dist = FAMILIES[family]()
        with pytest.raises(DistributionError):
            dist.ppf(math.nan)
        with pytest.raises(DistributionError):
            dist.ppf_batch(np.array([[0.25, math.nan]]))

    def test_empty_ladder_is_empty(self, family):
        assert FAMILIES[family]().ppf_batch([]).shape == (0,)


def point_by_point(dist, ladder: np.ndarray) -> np.ndarray:
    return np.array([dist.ppf(float(q)) for q in ladder])


#: The analytic ladder plus both ends and a few interior points.
LADDER = np.concatenate([[0.0, 1.0, 0.5, 0.25], quantile_ladder()])


class TestTableBackedLadders:
    @pytest.mark.parametrize("n", [1, 2, 7, 1000, 30_000])
    @pytest.mark.parametrize("ties", [False, True])
    def test_empirical_is_bit_identical_to_ppf(self, n, ties):
        observations = np.random.default_rng(n).exponential(3.0, n)
        if ties:
            observations = np.round(observations)
        dist = EmpiricalDistribution(observations)
        batch = dist.ppf_batch(LADDER)
        assert batch.tobytes() == point_by_point(dist, LADDER).tobytes()

    def test_empirical_ends_are_the_sample_extremes(self):
        dist = EmpiricalDistribution(np.array([4.0, 1.0, 9.0, 1.0]))
        assert dist.ppf_batch([0.0, 1.0]).tolist() == [1.0, 9.0]

    def test_single_observation_is_a_point_mass(self):
        dist = EmpiricalDistribution(np.array([2.5]))
        assert dist.ppf_batch(LADDER).tolist() == [2.5] * LADDER.size

    def test_quantile_table_is_bit_identical_to_ppf(self):
        # A flat segment (p99 == p99.9) exercises duplicate latency knots.
        dist = QuantileTableDistribution.from_percentiles(
            [(50.0, 2.0), (99.0, 9.0), (99.9, 9.0)], minimum=0.5, maximum=20.0
        )
        batch = dist.ppf_batch(LADDER)
        assert batch.tobytes() == point_by_point(dist, LADDER).tobytes()

    def test_batch_keeps_the_input_shape(self):
        dist = EmpiricalDistribution(np.arange(10.0))
        grid = np.array([[0.1, 0.2], [0.3, 0.4]])
        assert dist.ppf_batch(grid).shape == (2, 2)

    def test_grid_from_empirical_makes_no_scalar_ppf_calls(self, monkeypatch):
        calls = []
        original = EmpiricalDistribution.ppf
        monkeypatch.setattr(
            EmpiricalDistribution,
            "ppf",
            lambda self, q: calls.append(q) or original(self, q),
        )
        dist = EmpiricalDistribution(np.random.default_rng(0).exponential(2.0, 8_192))
        grid = LatencyGrid.from_distribution(dist)
        assert calls == []
        assert grid.values.size == quantile_ladder().size
