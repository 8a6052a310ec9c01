"""Differential and property tests of the resumable SUS engine.

``oracle_sus`` is the original single-shot engine, kept verbatim as the
reference: one independent run per request, with the layer caps applied
through an open-mask closure. The library's ``sus_select``,
``sus_select_layered`` and the shared-run drivers of both sweeps
(``sched._prefix_schedules``, ``sched._layered_schedules``) must reproduce it
exactly, fallback ranks included, and each SUS row of a sweep must hold the
evaluation of its oracle schedule. With ``fail`` set, the oracle raises where
pruning runs dry instead of falling back; the engine's recorded fallback rank
must be that signal.
"""

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from conftest import K_PAST_M, assert_row_is, layer_counts_of, pool_from_vectors, unscheduled
from mimoshare import sched
from mimoshare.csi import CsiDataset, Layer
from mimoshare.sched import (
    SelectionError,
    SelectionMethod,
    SelectionResult,
    SusParams,
    sus_select,
    sus_select_layered,
)
from mimoshare.sweeps import _RangeError, sweep_layer_grid, sweep_total_users
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

    return SelectionResult(tuple(chosen), layer_counts_of(pool, chosen), method, fallback_from)


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
def two_layer_pools(draw, wide=False, sparse_ids=False):
    """Small random two-layer pools; ``wide`` keeps M >= N so every schedule is well conditioned.

    Narrow pools have more users than antennas, so residuals vanish and the
    fallback engages; some rows repeat an earlier channel to force exact ties.
    With ``sparse_ids`` the record ids are distinct integers up to 1000 N in
    no order, so the lowest id of a tie is often not its first row, and no
    row is its own id.
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
    ids = rng.choice(1000 * n, size=n, replace=False) if sparse_ids else None
    return pool_from_vectors(vectors[order], [layers[i] for i in order], ids=ids)


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

    def sweeps(users):
        """Both sweeps of the full ranges, each schedule cut to ``users``."""
        grounds = range(min(counts[Layer.TERRESTRIAL], users) + 1)
        aerials = range(min(counts[Layer.AERIAL], users - grounds[-1]) + 1)
        return [
            lambda: sweep_total_users(pool, range(1, min(len(pool), users) + 1), trials=2,
                                      params=params),
            lambda: sweep_layer_grid(pool, grounds, aerials, params),
        ]

    for sweep in sweeps(pool.m_antennas):
        try:
            sweep()
        except IllConditionedError:
            pass
    if len(pool) > pool.m_antennas:  # past M, the full ranges fail before scheduling
        for sweep in sweeps(len(pool)):
            with unscheduled(), pytest.raises(_RangeError,
                                              match=K_PAST_M.format(len(pool), pool.m_antennas)):
                sweep()


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


def driven(pool, schedules):
    """A driver's (pool rows, fallback rank) schedules as (record ids, fallback rank)."""
    return [(tuple(pool.ids[rows].tolist()), rank) for rows, rank in schedules]


def selected(selections):
    """The (record ids, fallback rank) of each selection."""
    return [(selection.chosen, selection.fallback_used_from) for selection in selections]


def assert_rows_are(pool, table, schedules):
    """Row i holds schedule i's layer counts and fallback rank, and exactly its summed SE."""
    assert len(table) == len(schedules)
    for row, schedule in zip(table.rows, schedules):
        assert_row_is(pool, row, schedule)


def layered_oracle_schedules(pool, grounds, aerials, params):
    """The oracle's layered schedule of every grid cell but (0, 0), in row order."""
    return [oracle_sus(pool, g + a, params, {Layer.TERRESTRIAL: g, Layer.AERIAL: a},
                       SelectionMethod.SUS_LAYERED)
            for g in grounds for a in aerials if g or a]


@HYPOTHESIS
@given(pool=two_layer_pools(wide=True), alpha=ALPHAS)
def test_total_sweep_sus_rows_match_oracle(pool, alpha):
    params = SusParams(alpha=alpha)
    ks = list(range(1, len(pool) + 1))
    expected = [oracle_sus(pool, k, params, None, SelectionMethod.SUS) for k in ks]
    assert driven(pool, sched._prefix_schedules(pool, ks, params)) == selected(expected)
    table = sweep_total_users(pool, ks, {SelectionMethod.SUS}, params=params)
    assert [row.k_total for row in table.rows] == ks
    assert_rows_are(pool, table, expected)


@HYPOTHESIS
@given(pool=two_layer_pools(wide=True), alpha=ALPHAS, data=st.data())
def test_layer_grid_rows_match_oracle(pool, alpha, data):
    params = SusParams(alpha=alpha)
    counts = pool.layer_counts()
    grounds = sorted(data.draw(st.sets(st.integers(0, counts[Layer.TERRESTRIAL]), min_size=1)))
    aerials = sorted(data.draw(st.sets(st.integers(0, counts[Layer.AERIAL]), min_size=1)))
    assume(grounds != [0] or aerials != [0])
    expected = layered_oracle_schedules(pool, grounds, aerials, params)
    schedules = sched._layered_schedules(pool, grounds, aerials, params)
    assert driven(pool, schedules) == selected(expected)
    table = sweep_layer_grid(pool, grounds, aerials, params)
    cells = [(g, a) for g in grounds for a in aerials if g or a]
    assert [(row.k_ground, row.k_aerial) for row in table.rows] == cells
    assert_rows_are(pool, table, expected)


# the oracle picks the lowest record id of a tie; on these pools that is
# often not the lowest row, and the drivers' rows must map to the same ids
@HYPOTHESIS
@given(pool=two_layer_pools(sparse_ids=True), alpha=ALPHAS)
def test_selectors_break_ties_by_lowest_record_id(pool, alpha):
    test_sus_select_matches_oracle.hypothesis.inner_test(pool, alpha)
    test_sus_select_layered_matches_oracle.hypothesis.inner_test(pool, alpha)


@HYPOTHESIS
@given(pool=two_layer_pools(wide=True, sparse_ids=True), alpha=ALPHAS, data=st.data())
def test_sweep_sus_rows_match_oracle_on_sparse_ids(pool, alpha, data):
    test_total_sweep_sus_rows_match_oracle.hypothesis.inner_test(pool, alpha)
    test_layer_grid_rows_match_oracle.hypothesis.inner_test(pool, alpha, data)


def test_engine_matches_oracle_on_default_pool(default_pool):
    params = SusParams()
    full = sus_select(default_pool, len(default_pool), params)
    assert full == oracle_sus(default_pool, len(default_pool), params, None, SelectionMethod.SUS)
    grounds, aerials = list(range(0, 37, 6)), list(range(0, 29, 7))
    expected = layered_oracle_schedules(default_pool, grounds, aerials, params)
    schedules = sched._layered_schedules(default_pool, grounds, aerials, params)
    assert driven(default_pool, schedules) == selected(expected)
    assert_rows_are(default_pool, sweep_layer_grid(default_pool, grounds, aerials, params),
                    expected)
