"""Differential and property tests of the resumable SUS engine.

``oracle_sus`` is the original single-shot engine, kept verbatim as the
reference: one independent run per request, with the layer caps applied
through an open-mask closure. The library's ``sus_select``,
``sus_select_layered`` and the SUS rows of both sweeps must reproduce it
exactly, fallback ranks included. With ``fail`` set, the oracle raises where
pruning runs dry instead of falling back; the engine's recorded fallback rank
must be that signal.
"""

import numpy as np
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from conftest import pool_from_vectors
from mimoshare.csi import CsiDataset, Layer
from mimoshare.sched import (
    SelectionError,
    SelectionMethod,
    SelectionResult,
    SusParams,
    sus_select,
    sus_select_layered,
)
from mimoshare.sweeps import sweep_layer_grid, sweep_total_users
from mimoshare.zfmetrics import IllConditionedError


def oracle_sus(
    pool: CsiDataset,
    total: int,
    params: SusParams,
    caps: dict[Layer, int] | None,
    method: SelectionMethod,
    fail: bool = False,
) -> SelectionResult:
    channels = pool.channels  # (N, M)
    ids = np.array([r.index for r in pool.records])
    layers = np.array([r.layer is Layer.AERIAL for r in pool.records])  # False = terrestrial
    norms = np.linalg.norm(channels, axis=1)

    residuals = channels.copy()
    unpruned = np.ones(len(pool), dtype=bool)
    unselected = np.ones(len(pool), dtype=bool)
    counts = {Layer.TERRESTRIAL: 0, Layer.AERIAL: 0}
    chosen: list[int] = []
    fallback_from: int | None = None

    def open_mask() -> np.ndarray:
        if caps is None:
            return np.ones(len(pool), dtype=bool)
        mask = np.zeros(len(pool), dtype=bool)
        if counts[Layer.TERRESTRIAL] < caps.get(Layer.TERRESTRIAL, 0):
            mask |= ~layers
        if counts[Layer.AERIAL] < caps.get(Layer.AERIAL, 0):
            mask |= layers
        return mask

    while len(chosen) < total:
        eligible = unselected & open_mask()
        if fallback_from is None:
            candidates = eligible & unpruned
            if not candidates.any():
                if fail:
                    raise SelectionError(
                        f"candidates exhausted after {len(chosen)} of {total} selections "
                        f"at alpha={params.alpha}"
                    )
                fallback_from = len(chosen)
                candidates = eligible
        else:
            candidates = eligible
        if not candidates.any():
            raise SelectionError("pool exhausted before the requested schedule size")

        res_norms = np.linalg.norm(residuals[candidates], axis=1)
        cand_positions = np.flatnonzero(candidates)
        best = res_norms.max()
        tied = cand_positions[res_norms == best]
        pick = tied[np.argmin(ids[tied])]  # deterministic tie-break: lowest record id

        g = residuals[pick].copy()
        chosen.append(int(ids[pick]))
        unselected[pick] = False
        counts[pool.records[pick].layer] += 1

        norm_sq = float(np.vdot(g, g).real)
        if norm_sq > 0.0:
            # expand the basis: project everyone onto the new direction once
            residuals -= np.outer(residuals @ g.conj() / norm_sq, g)
            if fallback_from is None:
                live = unpruned & unselected
                denom = np.maximum(norms[live], 1e-300) * np.sqrt(norm_sq)
                corr = np.abs(channels[live] @ g.conj()) / denom
                drop = np.flatnonzero(live)[corr >= params.alpha]
                unpruned[drop] = False

    return SelectionResult(tuple(chosen), pool.layer_counts(chosen), method, fallback_from)


def oracle_stops(pool, total, params, caps, method) -> bool:
    """Whether the oracle in fail mode raises: pruning runs dry before ``total`` picks."""
    try:
        oracle_sus(pool, total, params, caps, method, fail=True)
    except SelectionError:
        return True
    return False


def quota_cells(pool):
    """Every per-layer quota the pool can fill, except (0, 0)."""
    counts = pool.layer_counts()
    return [
        {Layer.TERRESTRIAL: g, Layer.AERIAL: a}
        for g in range(counts[Layer.TERRESTRIAL] + 1)
        for a in range(counts[Layer.AERIAL] + 1)
        if g or a
    ]


ALPHAS = st.sampled_from([0.2, 0.4, 0.6, 0.9, 1.0])
HYPOTHESIS = settings(derandomize=True, deadline=None, max_examples=60)


@st.composite
def two_layer_pools(draw, wide=False):
    """Small random two-layer pools; ``wide`` keeps M >= N so every schedule is well conditioned.

    Narrow pools have more users than antennas, so residuals vanish and the
    fallback engages; some rows repeat an earlier channel to force exact ties.
    """
    n_ground = draw(st.integers(0, 5))
    n_aerial = draw(st.integers(0 if n_ground else 1, 5))
    n = n_ground + n_aerial
    m = draw(st.integers(n, n + 3)) if wide else draw(st.integers(2, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    vectors = rng.standard_normal((n, m)) + 1j * rng.standard_normal((n, m))
    vectors *= rng.uniform(0.5, 2.0, size=(n, 1))
    if not wide and n > 1:
        for row in draw(st.lists(st.integers(1, n - 1), max_size=2)):
            vectors[row] = vectors[row - 1]
    layers = [Layer.TERRESTRIAL] * n_ground + [Layer.AERIAL] * n_aerial
    order = rng.permutation(n)  # interleave the layers in record order
    return pool_from_vectors(vectors[order], [layers[i] for i in order])


def dominant_direction_pool():
    # one dominant direction: pruning empties the candidates after the first pick
    base = np.zeros(4, dtype=complex)
    base[0] = 1.0
    vectors = [base * (1.0 + 0.1 * i) for i in range(4)] + [np.eye(4)[1]]
    return pool_from_vectors(vectors, [Layer.TERRESTRIAL] * 4 + [Layer.AERIAL])


@HYPOTHESIS
@given(pool=two_layer_pools(), alpha=ALPHAS)
def test_sus_select_matches_oracle(pool, alpha):
    params = SusParams(alpha=alpha)
    for k in range(1, len(pool) + 1):
        assert sus_select(pool, k, params) == oracle_sus(pool, k, params, None, SelectionMethod.SUS)


@HYPOTHESIS
@given(pool=two_layer_pools(), alpha=ALPHAS)
@example(pool=dominant_direction_pool(), alpha=0.5)
def test_sus_select_layered_matches_oracle(pool, alpha):
    params = SusParams(alpha=alpha)
    for caps in quota_cells(pool):
        total = sum(caps.values())
        expected = oracle_sus(pool, total, params, caps, SelectionMethod.SUS_LAYERED)
        assert sus_select_layered(pool, caps, params) == expected
        assert expected.per_layer_counts == caps


@HYPOTHESIS
@given(pool=two_layer_pools(), alpha=ALPHAS)
@example(pool=dominant_direction_pool(), alpha=0.5)
def test_fallback_rank_is_where_a_failing_oracle_stops(pool, alpha):
    params = SusParams(alpha=alpha)
    for k in range(1, len(pool) + 1):
        stops = oracle_stops(pool, k, params, None, SelectionMethod.SUS)
        assert stops == (sus_select(pool, k, params).fallback_used_from is not None)
    for caps in quota_cells(pool):
        stops = oracle_stops(pool, sum(caps.values()), params, caps, SelectionMethod.SUS_LAYERED)
        assert stops == (sus_select_layered(pool, caps, params).fallback_used_from is not None)


@HYPOTHESIS
@given(pool=two_layer_pools(), alpha=ALPHAS)
def test_full_range_sweeps_fail_only_on_ill_conditioning(pool, alpha):
    params = SusParams(alpha=alpha)
    counts = pool.layer_counts()
    sweeps = [
        lambda: sweep_total_users(pool, range(1, len(pool) + 1), trials=2, params=params),
        lambda: sweep_layer_grid(
            pool, range(counts[Layer.TERRESTRIAL] + 1), range(counts[Layer.AERIAL] + 1), params
        ),
    ]
    for sweep in sweeps:
        try:
            sweep()
        except IllConditionedError:
            pass


@HYPOTHESIS
@given(pool=two_layer_pools(), alpha=ALPHAS)
def test_sus_prefix_property(pool, alpha):
    params = SusParams(alpha=alpha)
    full = sus_select(pool, len(pool), params)
    for k in range(1, len(pool)):
        part = sus_select(pool, k, params)
        assert part.chosen == full.chosen[:k]
        f = full.fallback_used_from
        assert part.fallback_used_from == (f if f is not None and f < k else None)


@HYPOTHESIS
@given(pool=two_layer_pools(wide=True), alpha=ALPHAS)
def test_total_sweep_sus_rows_match_oracle(pool, alpha):
    params = SusParams(alpha=alpha)
    table = sweep_total_users(pool, range(1, len(pool) + 1), {SelectionMethod.SUS}, params=params)
    assert [row.k_total for row in table.rows] == list(range(1, len(pool) + 1))
    for row in table.rows:
        expected = oracle_sus(pool, row.k_total, params, None, SelectionMethod.SUS)
        assert row.selection == expected
        assert row.fallback_rank == expected.fallback_used_from


@HYPOTHESIS
@given(pool=two_layer_pools(wide=True), alpha=ALPHAS, data=st.data())
def test_layer_grid_rows_match_oracle(pool, alpha, data):
    params = SusParams(alpha=alpha)
    counts = pool.layer_counts()
    grounds = data.draw(st.sets(st.integers(0, counts[Layer.TERRESTRIAL]), min_size=1))
    aerials = data.draw(st.sets(st.integers(0, counts[Layer.AERIAL]), min_size=1))
    assume(grounds != {0} or aerials != {0})
    table = sweep_layer_grid(pool, grounds, aerials, params)
    cells = [(g, a) for g in sorted(grounds) for a in sorted(aerials) if g or a]
    assert [(row.k_ground, row.k_aerial) for row in table.rows] == cells
    for row in table.rows:
        caps = {Layer.TERRESTRIAL: row.k_ground, Layer.AERIAL: row.k_aerial}
        expected = oracle_sus(pool, row.k_total, params, caps, SelectionMethod.SUS_LAYERED)
        assert row.selection == expected
        assert row.fallback_rank == expected.fallback_used_from


def test_engine_matches_oracle_on_default_pool(default_pool):
    params = SusParams()
    full = sus_select(default_pool, len(default_pool), params)
    assert full == oracle_sus(default_pool, len(default_pool), params, None, SelectionMethod.SUS)
    table = sweep_layer_grid(default_pool, range(0, 37, 6), range(0, 29, 7), params)
    for row in table.rows:
        caps = {Layer.TERRESTRIAL: row.k_ground, Layer.AERIAL: row.k_aerial}
        assert row.selection == oracle_sus(
            default_pool, row.k_total, params, caps, SelectionMethod.SUS_LAYERED
        )
