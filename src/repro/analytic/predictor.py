"""Analytic WARS predictor: quorum latency and t-visibility without sampling.

Exact decomposition
-------------------
Write ``U_i = W_i + A_i`` (commit round trip), ``V_i = R_i + S_i`` (read
round trip) and ``M_i = W_i − R_i`` (freshness margin) for replica ``i``.  A
read started ``t`` ms after commit is stale exactly when every replica in the
read quorum (the ``R`` smallest ``V``) has ``M_j > wt + t``, where ``wt`` is
the ``W``-th smallest ``U`` over all ``N`` replicas.

Two observations make this tractable (proof in ``docs/architecture.md`` §7):

1. On the staleness event, every read-quorum replica has ``U_j > wt``, so the
   ``W`` acknowledgements defining ``wt`` all come from the ``N − R``
   replicas *outside* the read quorum.  Replacing ``wt`` by ``wt_c`` — the
   ``W``-th smallest ``U`` among those ``N − R`` replicas — changes nothing:

       P(stale at t) = ∫ G(u + t) dF_wtc(u),

   with the two factors independent because ``U`` involves only the write
   legs while quorum membership involves only the read legs.  When
   ``W > N − R`` (a strict quorum, ``R + W > N``) the event is impossible
   and the staleness probability is exactly zero.

2. ``G(s) = P(every read-quorum replica has M > s)`` is a classic order
   statistic of the i.i.d. pairs ``(V_i, M_i)``: conditioning on the
   ``R``-th smallest ``V``,

       G(s) = N·C(N−1, R−1) ∫ α_s(v)^{R−1} (1 − F_V(v))^{N−R} dα_s(v),

   where ``α_s(v) = P(V ≤ v, M > s) = Σ_r p_R(r)·F_S(v − r)·P(W > s + r)``
   (conditioning on the read-request leg ``r`` makes ``V`` and ``M``
   conditionally independent).  Tabulated over an ``(s, v)`` grid, α is one
   matrix product shared by *every* configuration of an environment; each
   ``(N, R)`` then needs only elementwise powers and a weighted row-sum.

Discretisation is the only approximation: every distribution is carried on a
tail-aware quantile ladder (:mod:`repro.analytic.grid`), and
:mod:`repro.analytic.validation` bounds the end-to-end error against the
Monte Carlo engine.  Replicas must be i.i.d. — per-replica (WAN) models are
rejected and remain Monte Carlo only.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from math import comb
from typing import Mapping, Sequence

import numpy as np

from repro.analytic.grid import (
    DEFAULT_GRID_POINTS,
    DEFAULT_TAIL_MASS,
    LatencyGrid,
    convolve_grids,
)
from repro.analytic.orderstats import order_statistic_cdf
from repro.core.quorum import ReplicaConfig
from repro.exceptions import ConfigurationError
from repro.latency.composite import PerReplicaLatency
from repro.latency.production import WARSDistributions

__all__ = [
    "AnalyticEnvironment",
    "AnalyticConfigResult",
    "AnalyticPredictor",
    "DEFAULT_TARGET_PROBABILITIES",
    "DEFAULT_SUMMARY_PERCENTILES",
]

#: Consistency targets summarised by :meth:`AnalyticPredictor.sweep`,
#: matching the Monte Carlo engine's defaults (99% and 99.9%).
DEFAULT_TARGET_PROBABILITIES: tuple[float, ...] = (0.99, 0.999)

#: Latency percentiles summarised by :meth:`AnalyticPredictor.sweep`.
DEFAULT_SUMMARY_PERCENTILES: tuple[float, ...] = (50.0, 95.0, 99.0, 99.9)

#: Equal-mass quadrature atoms for ``wt_c`` on the fast sweep path.  Point
#: queries via :meth:`AnalyticConfigResult.consistency_probability` use the
#: full grid resolution instead.
_SWEEP_ATOMS: int = 32

#: Geometric seed points for inverting the staleness curve during a sweep.
_SEED_POINTS: int = 17

#: Bisection refinements after seeding a t-visibility bracket in a sweep.
_SWEEP_REFINEMENTS: int = 10

#: Bisection iterations for the exact (lazy) t-visibility query.
_EXACT_BISECTIONS: int = 60

#: One lock per predictor (by ``id``) with a cold
#: :attr:`AnalyticPredictor.environment` build in progress, so concurrent
#: first queries on one predictor build its tables once while builds for
#: different predictors still overlap.  ``_BUILD_LOCKS_GUARD`` guards the map.
_BUILD_LOCKS: dict[int, threading.Lock] = {}
_BUILD_LOCKS_GUARD = threading.Lock()


def _cdf_cells(nodes: np.ndarray, cdf: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Midpoint/mass cells of a CDF tabulated on ``nodes`` (masses sum to 1)."""
    mids = np.concatenate([[nodes[0]], 0.5 * (nodes[:-1] + nodes[1:]), [nodes[-1]]])
    masses = np.concatenate([[cdf[0]], np.diff(cdf), [1.0 - cdf[-1]]])
    keep = masses > 0.0
    return mids[keep], masses[keep]


def _pad_degenerate(values: np.ndarray) -> np.ndarray:
    """Ensure at least two strictly ordered nodes (constant legs collapse to one)."""
    if values.size >= 2:
        return values
    value = float(values[0])
    return np.array([value - max(abs(value), 1.0) * 1e-9, value])


@dataclass(frozen=True)
class AnalyticEnvironment:
    """Per-environment tables shared by every ``(N, R, W)`` configuration.

    Construction tabulates the four legs, convolves them into the commit
    (``U = W + A``) and read (``V = R + S``) round-trip distributions, and
    builds the α matrix of the module docstring.  All of that is independent
    of the quorum sizes, so one environment amortises over a whole
    replication-factor × quorum grid; per-``(N, R)`` freshness curves and
    per-quorum latency tables are cached lazily on first use.
    """

    distributions: WARSDistributions
    grid_points: int = DEFAULT_GRID_POINTS
    tail_mass: float = DEFAULT_TAIL_MASS
    #: Read-request-leg quadrature cells used for the α matrix.
    request_cells: int = 256
    #: Quadrature cells used when convolving leg pairs.
    quad_cells: int = 512

    def __post_init__(self) -> None:
        for letter, leg in self.distributions.components().items():
            if isinstance(leg, PerReplicaLatency):
                raise ConfigurationError(
                    f"the analytic predictor requires i.i.d. replicas, but the "
                    f"{letter} leg of {self.distributions.name!r} is per-replica "
                    f"(the paper's WAN scenario); use the Monte Carlo engine for "
                    f"per-replica models"
                )
        grids: dict[int, LatencyGrid] = {}

        def grid_of(leg) -> LatencyGrid:
            if id(leg) not in grids:
                grids[id(leg)] = LatencyGrid.from_distribution(
                    leg, self.grid_points, self.tail_mass
                )
            return grids[id(leg)]

        legs = self.distributions
        write_grid = grid_of(legs.w)
        ack_grid = grid_of(legs.a)
        request_grid = grid_of(legs.r)
        response_grid = grid_of(legs.s)

        commit_grid = convolve_grids(
            write_grid, ack_grid, self.grid_points, self.tail_mass, self.quad_cells
        )
        read_nodes = _pad_degenerate(
            convolve_grids(
                response_grid,
                request_grid,
                self.grid_points,
                self.tail_mass,
                self.quad_cells,
            ).values
        )

        # α[s, v] = P(V <= v, M > s) per replica, via quadrature over the
        # read-request leg: given R = r, V = r + S and M = W − r are
        # independent.  F_V reuses the same quadrature so the G integrand's
        # two factors share their discretisation error.
        request_mids, request_masses = request_grid.cells(self.request_cells)
        s_nodes = np.unique(
            np.concatenate([[0.0], write_grid.values[write_grid.values > 0.0]])
        )
        if s_nodes.size < 2:
            s_nodes = np.array([0.0, 1.0])
        blocked = request_masses[None, :] * write_grid.sf(
            s_nodes[:, None] + request_mids[None, :]
        )
        responded = response_grid.cdf(read_nodes[None, :] - request_mids[:, None])
        alpha = blocked @ responded
        read_cdf = request_masses @ responded

        u_nodes = _pad_degenerate(commit_grid.values)
        commit_cdf = commit_grid.probs if u_nodes.size == commit_grid.values.size else (
            commit_grid.cdf(u_nodes)
        )

        object.__setattr__(self, "_u_nodes", u_nodes)
        object.__setattr__(self, "_commit_cdf", np.asarray(commit_cdf, dtype=float))
        object.__setattr__(self, "_v_nodes", read_nodes)
        object.__setattr__(self, "_read_cdf", np.clip(read_cdf, 0.0, 1.0))
        object.__setattr__(self, "_s_nodes", s_nodes)
        object.__setattr__(self, "_mid_alpha", 0.5 * (alpha[:, 1:] + alpha[:, :-1]))
        object.__setattr__(self, "_d_alpha", np.diff(alpha, axis=1))
        object.__setattr__(
            self,
            "_mid_read_sf",
            np.clip(1.0 - 0.5 * (read_cdf[1:] + read_cdf[:-1]), 0.0, 1.0),
        )
        object.__setattr__(self, "_g_cache", {})
        object.__setattr__(self, "_latency_cache", {})

    # ------------------------------------------------------------------
    # Cached per-(N, R) / per-quorum tables.
    # ------------------------------------------------------------------
    def quorum_freshness(self, n: int, r: int) -> np.ndarray:
        """``G(s) = P(every read-quorum replica has W − R > s)`` on ``s_nodes``.

        The order-statistics integral of the module docstring, evaluated as a
        midpoint sum along the ``v`` axis of the precomputed α matrix.
        Cached per ``(n, r)``.
        """
        key = (n, r)
        cached = self._g_cache.get(key)
        if cached is not None:
            return cached
        if not 1 <= r <= n:
            raise ConfigurationError(f"read quorum must satisfy 1 <= R <= N, got {key}")
        integrand = self._d_alpha
        if r > 1:
            integrand = integrand * self._mid_alpha ** (r - 1)
        weights = self._mid_read_sf ** (n - r)
        freshness = (n * comb(n - 1, r - 1)) * (integrand @ weights)
        freshness = np.minimum.accumulate(np.clip(freshness, 0.0, 1.0))
        self._g_cache[key] = freshness
        return freshness

    def commit_blocker_cdf(self, config: ReplicaConfig) -> np.ndarray:
        """CDF of ``wt_c`` on ``u_nodes``: the ``W``-th fastest commit round trip
        among the ``N − R`` replicas outside the read quorum."""
        spare = config.n - config.r
        if config.w > spare:
            raise ConfigurationError(
                f"{config} is a strict quorum; its staleness probability is zero"
            )
        return order_statistic_cdf(self._commit_cdf, spare, config.w)

    def operation_latency_table(self, kind: str, n: int, k: int) -> np.ndarray:
        """CDF of the ``k``-th fastest of ``n`` commit ("write") or read round trips."""
        key = (kind, n, k)
        cached = self._latency_cache.get(key)
        if cached is not None:
            return cached
        if kind == "write":
            parent = self._commit_cdf
        elif kind == "read":
            parent = self._read_cdf
        else:
            raise ConfigurationError(f"latency kind must be 'write' or 'read', got {kind}")
        table = order_statistic_cdf(parent, n, k)
        self._latency_cache[key] = table
        return table

    def latency_percentiles(
        self, kind: str, n: int, k: int, percentiles: Sequence[float]
    ) -> dict[float, float]:
        """Operation-latency percentiles for one quorum, from the cached table."""
        table = self.operation_latency_table(kind, n, k)
        nodes = self._u_nodes if kind == "write" else self._v_nodes
        values = np.interp(np.asarray(percentiles, dtype=float) / 100.0, table, nodes)
        return {float(p): float(v) for p, v in zip(percentiles, values)}

    @property
    def max_staleness_horizon_ms(self) -> float:
        """Beyond this ``t`` the staleness probability is indistinguishable from 0."""
        return float(self._s_nodes[-1])


@dataclass(frozen=True)
class AnalyticConfigResult:
    """Analytic answers for one ``(N, R, W)`` configuration.

    Mirrors the query surface of the Monte Carlo
    :class:`repro.montecarlo.engine.ConfigSweepResult`: point queries are
    computed on demand at full grid resolution; ``curve``,
    ``t_visibility_ms`` and the latency mappings are populated eagerly when
    the result came from :meth:`AnalyticPredictor.sweep`.
    """

    config: ReplicaConfig
    environment: AnalyticEnvironment
    #: ``(t, P(consistent at t))`` pairs when produced by a sweep.
    curve: tuple[tuple[float, float], ...] | None = None
    #: Target probability -> t-visibility (ms) when produced by a sweep.
    t_visibility_ms: Mapping[float, float] | None = None
    #: Percentile -> read latency (ms) when produced by a sweep.
    read_latency_ms: Mapping[float, float] | None = None
    #: Percentile -> write latency (ms) when produced by a sweep.
    write_latency_ms: Mapping[float, float] | None = None

    # ------------------------------------------------------------------
    # Exact-path staleness machinery (full grid resolution).
    # ------------------------------------------------------------------
    def _staleness_cells(self) -> tuple[np.ndarray, np.ndarray]:
        try:
            return self._staleness_cells_cache  # type: ignore[attr-defined]
        except AttributeError:
            env = self.environment
            cells = _cdf_cells(env._u_nodes, env.commit_blocker_cdf(self.config))
            object.__setattr__(self, "_staleness_cells_cache", cells)
            return cells

    def staleness_probability(self, t_ms: float) -> float:
        """``P(read started t ms after commit is stale)``, exactly zero for
        strict quorums."""
        if t_ms < 0:
            raise ConfigurationError(f"time since commit must be non-negative, got {t_ms}")
        if self.config.is_strict:
            return 0.0
        env = self.environment
        mids, masses = self._staleness_cells()
        freshness = env.quorum_freshness(self.config.n, self.config.r)
        return float(
            masses @ np.interp(mids + t_ms, env._s_nodes, freshness, right=0.0)
        )

    def consistency_probability(self, t_ms: float) -> float:
        """``P(read started t ms after commit is consistent)``."""
        return 1.0 - self.staleness_probability(t_ms)

    def consistency_curve(self, times_ms: Sequence[float]) -> list[tuple[float, float]]:
        """``(t, P(consistent at t))`` for each requested time since commit."""
        times = np.asarray(list(times_ms), dtype=float)
        if np.any(times < 0):
            raise ConfigurationError("times since commit must be non-negative")
        if self.config.is_strict:
            return [(float(t), 1.0) for t in times]
        env = self.environment
        mids, masses = self._staleness_cells()
        freshness = env.quorum_freshness(self.config.n, self.config.r)
        stale = (
            np.interp(
                (mids[None, :] + times[:, None]).ravel(),
                env._s_nodes,
                freshness,
                right=0.0,
            ).reshape(times.size, mids.size)
            @ masses
        )
        return [(float(t), float(1.0 - p)) for t, p in zip(times, stale)]

    def t_visibility(self, target_probability: float) -> float:
        """Smallest ``t`` (ms) at which consistency reaches the target probability."""
        if not 0.0 < target_probability <= 1.0:
            raise ConfigurationError(
                f"target probability must be in (0, 1], got {target_probability}"
            )
        if self.config.is_strict:
            return 0.0
        epsilon = 1.0 - target_probability
        if self.staleness_probability(0.0) <= epsilon:
            return 0.0
        low, high = 0.0, self.environment.max_staleness_horizon_ms
        for _ in range(_EXACT_BISECTIONS):
            mid = 0.5 * (low + high)
            if self.staleness_probability(mid) > epsilon:
                low = mid
            else:
                high = mid
        return high

    def probability_never_stale(self) -> float:
        """``P(consistent immediately at commit)`` — the ``t = 0`` point."""
        return self.consistency_probability(0.0)

    def read_latency_percentile(self, percentile: float) -> float:
        """Read operation latency (ms) at the given percentile."""
        return self.environment.latency_percentiles(
            "read", self.config.n, self.config.r, (percentile,)
        )[float(percentile)]

    def write_latency_percentile(self, percentile: float) -> float:
        """Write (commit) latency (ms) at the given percentile."""
        return self.environment.latency_percentiles(
            "write", self.config.n, self.config.w, (percentile,)
        )[float(percentile)]


@dataclass(frozen=True)
class AnalyticPredictor:
    """Front end over :class:`AnalyticEnvironment` for sweeps and point queries.

    The environment tables are built lazily on first use and shared by every
    subsequent query, so a warm predictor answers a full multi-configuration
    sweep in about a millisecond and a single point query in microseconds.
    """

    distributions: WARSDistributions
    grid_points: int = DEFAULT_GRID_POINTS
    tail_mass: float = DEFAULT_TAIL_MASS
    request_cells: int = 256
    quad_cells: int = 512

    @property
    def environment(self) -> AnalyticEnvironment:
        """The lazily built, cached environment tables.

        Built at most once even when several threads ask for a cold
        predictor at the same time: the build runs under a lock of this
        predictor's own and re-checks the cache inside it, so a late caller
        waits for the first build instead of repeating it.  Cold builds of
        different predictors do not wait for each other.  The lock lives in
        a module-level map, not in a field, which keeps the predictor a
        picklable, comparable frozen dataclass.
        """
        try:
            return self._environment_cache  # type: ignore[attr-defined]
        except AttributeError:
            pass
        key = id(self)
        with _BUILD_LOCKS_GUARD:
            lock = _BUILD_LOCKS.setdefault(key, threading.Lock())
        with lock:
            try:
                return self._environment_cache  # type: ignore[attr-defined]
            except AttributeError:
                pass
            try:
                environment = AnalyticEnvironment(
                    distributions=self.distributions,
                    grid_points=self.grid_points,
                    tail_mass=self.tail_mass,
                    request_cells=self.request_cells,
                    quad_cells=self.quad_cells,
                )
                object.__setattr__(self, "_environment_cache", environment)
                return environment
            finally:
                # Callers arriving from here on find the cache (or, after a
                # failed build, retry under a fresh lock).
                with _BUILD_LOCKS_GUARD:
                    if _BUILD_LOCKS.get(key) is lock:
                        del _BUILD_LOCKS[key]

    def result(self, config: ReplicaConfig) -> AnalyticConfigResult:
        """A lazily evaluated result for one configuration."""
        return AnalyticConfigResult(config=config, environment=self.environment)

    def rebind(self, distributions: WARSDistributions) -> "AnalyticPredictor":
        """A predictor over new distributions with this predictor's tuning.

        The serving layer refits a tenant's latency model as observations
        stream in; ``rebind`` carries the grid/tail/quadrature tuning across
        the drift so every generation of the environment is discretised
        identically.  When the distributions are the same object, ``self`` is
        returned and the warm environment tables are preserved.
        """
        if distributions is self.distributions:
            return self
        return AnalyticPredictor(
            distributions=distributions,
            grid_points=self.grid_points,
            tail_mass=self.tail_mass,
            request_cells=self.request_cells,
            quad_cells=self.quad_cells,
        )

    def consistency_probability(self, config: ReplicaConfig, t_ms: float) -> float:
        """``P(consistent at t)`` for one configuration."""
        return self.result(config).consistency_probability(t_ms)

    def t_visibility(self, config: ReplicaConfig, target_probability: float) -> float:
        """t-visibility (ms) for one configuration at one target probability."""
        return self.result(config).t_visibility(target_probability)

    def sweep(
        self,
        configs: Sequence[ReplicaConfig],
        times_ms: Sequence[float] = (),
        target_probability: Sequence[float] = DEFAULT_TARGET_PROBABILITIES,
        percentiles: Sequence[float] = DEFAULT_SUMMARY_PERCENTILES,
    ) -> list[AnalyticConfigResult]:
        """Answer consistency, t-visibility and latency for many configurations.

        This is the fast path benchmarked against
        :class:`repro.montecarlo.engine.SweepEngine`: staleness quadratures
        use :data:`_SWEEP_ATOMS` equal-mass atoms of ``wt_c`` instead of the
        full grid, which keeps a warm eight-configuration sweep around a
        millisecond at well under 0.1% absolute probability error.
        """
        env = self.environment
        times = np.asarray(list(times_ms), dtype=float)
        if times.size and np.any(times < 0):
            raise ConfigurationError("times since commit must be non-negative")
        targets = tuple(target_probability)
        for target in targets:
            if not 0.0 < target <= 1.0:
                raise ConfigurationError(
                    f"target probability must be in (0, 1], got {target}"
                )
        horizon = env.max_staleness_horizon_ms
        seed_low = max(horizon * 1e-6, 1e-6)
        seeds = np.concatenate(
            [[0.0], np.geomspace(seed_low, horizon, _SEED_POINTS)]
        )
        atom_ladder = (np.arange(_SWEEP_ATOMS) + 0.5) / _SWEEP_ATOMS
        results: list[AnalyticConfigResult] = []
        for config in configs:
            read_latency = env.latency_percentiles(
                "read", config.n, config.r, percentiles
            )
            write_latency = env.latency_percentiles(
                "write", config.n, config.w, percentiles
            )
            if config.is_strict:
                curve = tuple((float(t), 1.0) for t in times)
                visibility = {float(target): 0.0 for target in targets}
                results.append(
                    AnalyticConfigResult(
                        config=config,
                        environment=env,
                        curve=curve,
                        t_visibility_ms=visibility,
                        read_latency_ms=read_latency,
                        write_latency_ms=write_latency,
                    )
                )
                continue
            blocker = env.commit_blocker_cdf(config)
            atoms = np.interp(atom_ladder, blocker, env._u_nodes)
            freshness = env.quorum_freshness(config.n, config.r)

            def staleness_at(query_times: np.ndarray) -> np.ndarray:
                shifted = atoms[None, :] + query_times[:, None]
                return np.interp(
                    shifted.ravel(), env._s_nodes, freshness, right=0.0
                ).reshape(query_times.size, atoms.size).mean(axis=1)

            query = np.concatenate([times, seeds])
            stale = staleness_at(query)
            curve = tuple(
                (float(t), float(1.0 - p)) for t, p in zip(times, stale[: times.size])
            )
            seed_stale = stale[times.size :]
            visibility: dict[float, float] = {}
            brackets: dict[float, list[float]] = {}
            for target in targets:
                epsilon = 1.0 - target
                if seed_stale[0] <= epsilon:
                    visibility[float(target)] = 0.0
                    continue
                # Bracket on the geometric seed curve, then bisect all
                # targets jointly (one batched evaluation per round).
                above = np.nonzero(seed_stale > epsilon)[0]
                low = float(seeds[above[-1]])
                high = float(seeds[above[-1] + 1]) if above[-1] + 1 < seeds.size else horizon
                brackets[float(target)] = [low, high]
            for _ in range(_SWEEP_REFINEMENTS if brackets else 0):
                pending = list(brackets)
                mids = np.array(
                    [0.5 * (brackets[t][0] + brackets[t][1]) for t in pending]
                )
                stale_mid = staleness_at(mids)
                for target, mid, stale_value in zip(pending, mids, stale_mid):
                    if stale_value > 1.0 - target:
                        brackets[target][0] = float(mid)
                    else:
                        brackets[target][1] = float(mid)
            for target, (_, high) in brackets.items():
                visibility[target] = high
            results.append(
                AnalyticConfigResult(
                    config=config,
                    environment=env,
                    curve=curve,
                    t_visibility_ms=visibility,
                    read_latency_ms=read_latency,
                    write_latency_ms=write_latency,
                )
            )
        return results
