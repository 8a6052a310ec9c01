import numpy as np
import pytest

from conftest import pool_from_vectors, random_unit_channels
from mimoshare.csi import Layer
from mimoshare.sched import (
    SelectionMethod,
    SelectionResult,
    SusParams,
    sus_select,
    sus_select_layered,
)
from mimoshare.sweeps import (
    CSV_HEADER,
    SweepRow,
    SweepTable,
    _schedule_then_evaluate,
    exhaustive_oracle,
    find_peak,
    max_users_for_min_se,
    sweep_layer_grid,
    sweep_total_users,
)
from mimoshare.zfmetrics import IllConditionedError, evaluate_selection


def two_layer_random_pool(seed=1, n_per_layer=10, m=8):
    rng = np.random.default_rng(seed)
    layers = [Layer.TERRESTRIAL] * n_per_layer + [Layer.AERIAL] * n_per_layer
    return pool_from_vectors(random_unit_channels(rng, 2 * n_per_layer, m), layers)


def manual_row(method, k_ground, k_aerial, trial, sum_se, fallback=None):
    k_total = k_ground + k_aerial
    return SweepRow(
        method=method,
        k_total=k_total,
        k_ground=k_ground,
        k_aerial=k_aerial,
        trial=trial,
        sum_se=sum_se,
        mean_individual_se=sum_se / k_total,
        fallback_rank=fallback,
        selection=None,
    )


# ---------------------------------------------------------------------------
# total-users sweep
# ---------------------------------------------------------------------------

def test_single_k_single_row():
    pool = two_layer_random_pool()
    table = sweep_total_users(pool, [1], methods={SelectionMethod.SUS})
    assert len(table.rows) == 1
    row = table.rows[0]
    assert row.sum_se == row.mean_individual_se
    assert row.k_total == 1


def test_sweep_is_reproducible():
    pool = two_layer_random_pool()
    a = sweep_total_users(pool, range(1, 6), trials=3, seed=4)
    b = sweep_total_users(pool, range(1, 6), trials=3, seed=4)
    assert a.rows == b.rows
    assert a.csv_text() == b.csv_text()


def test_rows_reevaluate_exactly():
    pool = two_layer_random_pool(seed=6)
    table = sweep_total_users(pool, range(1, 8), trials=2, seed=0)
    for row in table.rows:
        assert evaluate_selection(pool, row.selection).sum_se == row.sum_se


def test_sus_rows_recorded_once_random_per_trial():
    pool = two_layer_random_pool()
    table = sweep_total_users(pool, [3, 5], trials=4, seed=1)
    sus_rows = [r for r in table.rows if r.method is SelectionMethod.SUS]
    rnd_rows = [r for r in table.rows if r.method is SelectionMethod.RANDOM]
    assert len(sus_rows) == 2
    assert len(rnd_rows) == 8
    assert {r.trial for r in rnd_rows} == {0, 1, 2, 3}


def test_row_mean_is_sum_over_k():
    pool = two_layer_random_pool()
    table = sweep_total_users(pool, range(2, 7), trials=2, seed=3)
    for row in table.rows:
        assert row.mean_individual_se * row.k_total == pytest.approx(row.sum_se, rel=1e-9)


def test_sweep_validates_inputs():
    pool = two_layer_random_pool()
    with pytest.raises(ValueError):
        sweep_total_users(pool, [])
    with pytest.raises(ValueError):
        sweep_total_users(pool, [0, 1])
    with pytest.raises(ValueError):
        sweep_total_users(pool, [21])
    with pytest.raises(ValueError):
        sweep_total_users(pool, [1], trials=0)
    with pytest.raises(ValueError):
        sweep_total_users(pool, [1], methods={SelectionMethod.SUS_LAYERED})


def test_sus_never_below_random_mean_on_small_pool():
    pool = two_layer_random_pool(seed=9, n_per_layer=8, m=16)
    table = sweep_total_users(pool, range(1, 17), trials=10, seed=2)
    sus = {r.k_total: r.sum_se for r in table.rows if r.method is SelectionMethod.SUS}
    rnd = {}
    for r in table.rows:
        if r.method is SelectionMethod.RANDOM:
            rnd.setdefault(r.k_total, []).append(r.sum_se)
    for k in range(1, 17):
        assert sus[k] >= np.mean(rnd[k]) - 1e-9


# ---------------------------------------------------------------------------
# layer grid sweep
# ---------------------------------------------------------------------------

def test_grid_two_by_two_minus_origin():
    pool = two_layer_random_pool()
    table = sweep_layer_grid(pool, range(0, 2), range(0, 2))
    assert len(table.rows) == 3
    combos = {(r.k_ground, r.k_aerial) for r in table.rows}
    assert combos == {(0, 1), (1, 0), (1, 1)}


def test_grid_degenerate_rows_have_exact_counts():
    pool = two_layer_random_pool()
    table = sweep_layer_grid(pool, range(0, 4), range(0, 1))
    for row in table.rows:
        assert row.k_aerial == 0
        assert row.selection.per_layer_counts[Layer.TERRESTRIAL] == row.k_ground


def test_grid_completeness():
    pool = two_layer_random_pool()
    table = sweep_layer_grid(pool, range(0, 4), range(0, 3))
    assert len(table.rows) == 4 * 3 - 1


def test_grid_rejects_range_beyond_population():
    pool = two_layer_random_pool(n_per_layer=5)
    with pytest.raises(ValueError):
        sweep_layer_grid(pool, range(0, 7), range(0, 2))
    with pytest.raises(ValueError):
        sweep_layer_grid(pool, range(0, 2), range(0, 7))


def test_grid_rows_canonically_ordered():
    pool = two_layer_random_pool()
    table = sweep_layer_grid(pool, range(0, 3), range(0, 3))
    keys = [(r.k_ground, r.k_aerial) for r in table.rows]
    assert keys == sorted(keys)


# ---------------------------------------------------------------------------
# analysis helpers
# ---------------------------------------------------------------------------

def threshold_table():
    rows = [
        manual_row(SelectionMethod.SUS, k, 0, 0, sum_se=k * (10.0 - k)) for k in range(1, 6)
    ]
    return SweepTable(rows=tuple(rows), meta={})


def test_max_users_threshold_zero_gives_max_k():
    assert max_users_for_min_se(threshold_table(), SelectionMethod.SUS, 0.0) == 5


def test_max_users_threshold_above_all_gives_zero():
    assert max_users_for_min_se(threshold_table(), SelectionMethod.SUS, 99.0) == 0


def test_max_users_interior_threshold():
    # mean individual SE is 10 - k; threshold 7 admits k <= 3
    assert max_users_for_min_se(threshold_table(), SelectionMethod.SUS, 7.0) == 3


def test_max_users_averages_trials():
    rows = (
        manual_row(SelectionMethod.RANDOM, 2, 0, 0, sum_se=2 * 7.9),
        manual_row(SelectionMethod.RANDOM, 2, 0, 1, sum_se=2 * 8.1),
    )
    table = SweepTable(rows=rows, meta={})
    assert max_users_for_min_se(table, SelectionMethod.RANDOM, 8.0) == 2


def test_max_users_errors():
    with pytest.raises(ValueError):
        max_users_for_min_se(SweepTable(rows=(), meta={}), SelectionMethod.SUS, 1.0)
    with pytest.raises(ValueError):
        max_users_for_min_se(threshold_table(), SelectionMethod.RANDOM, 1.0)


def test_find_peak_single_row():
    table = SweepTable(rows=(manual_row(SelectionMethod.SUS, 3, 2, 0, 11.5),), meta={})
    assert find_peak(table) == (3, 2, 11.5)


def test_find_peak_monotone_surface_hits_corner():
    rows = tuple(
        manual_row(SelectionMethod.SUS_LAYERED, kg, ka, 0, sum_se=float(kg + ka))
        for kg in range(0, 4)
        for ka in range(0, 3)
        if (kg, ka) != (0, 0)
    )
    table = SweepTable(rows=rows, meta={})
    assert find_peak(table) == (3, 2, 5.0)


def test_find_peak_tie_breaks():
    rows = (
        manual_row(SelectionMethod.SUS_LAYERED, 4, 2, 0, 10.0),
        manual_row(SelectionMethod.SUS_LAYERED, 3, 2, 0, 10.0),  # fewer total users wins
        manual_row(SelectionMethod.SUS_LAYERED, 4, 1, 0, 10.0),  # fewer aerial wins at same total
    )
    table = SweepTable(rows=rows, meta={})
    assert find_peak(table) == (4, 1, 10.0)
    with pytest.raises(ValueError):
        find_peak(SweepTable(rows=(), meta={}))


# ---------------------------------------------------------------------------
# exhaustive oracle
# ---------------------------------------------------------------------------

def test_oracle_orthogonal_pool_full_choice():
    pool = pool_from_vectors(np.eye(4))
    ids, best = exhaustive_oracle(pool, 4)
    assert ids == (0, 1, 2, 3)
    assert best > 0


def test_oracle_prefers_orthogonal_pair():
    pool = pool_from_vectors([[2.0, 0.0], [1.9, 0.1], [0.0, 1.0]])
    ids, best = exhaustive_oracle(pool, 2)
    assert ids == (0, 2)  # near-parallel pair suffers ZF noise amplification


def test_oracle_budget_guard():
    rng = np.random.default_rng(1)
    pool = pool_from_vectors(random_unit_channels(rng, 30, 4))
    with pytest.raises(ValueError):
        exhaustive_oracle(pool, 15)  # C(30,15) = 155 million


def test_oracle_dominance_chain():
    from itertools import combinations

    from mimoshare.sched import SelectionResult
    from mimoshare.zfmetrics import IllConditionedError

    rng = np.random.default_rng(14)
    for trial in range(10):
        pool = pool_from_vectors(random_unit_channels(rng, 8, 4))
        _, best = exhaustive_oracle(pool, 3)
        sus_se = evaluate_selection(pool, sus_select(pool, 3)).sum_se
        sums = []
        for combo in combinations(range(8), 3):
            sel = SelectionResult(
                combo, {Layer.TERRESTRIAL: 3, Layer.AERIAL: 0}, SelectionMethod.EXHAUSTIVE
            )
            try:
                sums.append(evaluate_selection(pool, sel).sum_se)
            except IllConditionedError:
                sums.append(0.0)
        assert best >= sus_se - 1e-12
        assert sus_se >= min(sums) - 1e-12


# ---------------------------------------------------------------------------
# failures name the sweep cell
# ---------------------------------------------------------------------------

def duplicated_channel_pool():
    # two terrestrial copies of one channel: any schedule holding both is singular
    return pool_from_vectors(
        [np.eye(4)[0], np.eye(4)[0], np.eye(4)[1]],
        [Layer.TERRESTRIAL, Layer.TERRESTRIAL, Layer.AERIAL],
    )


def test_total_sweep_failure_names_the_cell():
    pool = duplicated_channel_pool()
    # SUS prunes the copy, takes the aerial user, then falls back to the copy at k = 3
    with pytest.raises(IllConditionedError, match=r"method=sus, k=3, trial=0"):
        sweep_total_users(pool, [1, 2, 3], methods={SelectionMethod.SUS})
    with pytest.raises(IllConditionedError, match=r"method=random, k=3, trial=0"):
        sweep_total_users(pool, [3], methods={SelectionMethod.RANDOM}, trials=1)


def test_grid_failure_names_the_cell():
    pool = duplicated_channel_pool()
    with pytest.raises(IllConditionedError, match=r"k_ground=2, k_aerial=0"):
        sweep_layer_grid(pool, [0, 2], [0, 1])


def collinear_pool():
    # e0, e1, their normalized sum s and a copy of e0, all terrestrial, plus an
    # aerial e2. At alpha = 0.9 SUS prunes the copy (correlation 1) but keeps
    # s (0.71 against e0 and against e1), so its third terrestrial pick is s, a
    # singular schedule, and a fourth terrestrial pick finds no candidate left:
    # pruning runs dry there, and the schedule falls back to the copy of e0
    e = np.eye(4)
    return pool_from_vectors(
        [e[0], e[1], (e[0] + e[1]) / np.sqrt(2.0), e[0], e[2]],
        [Layer.TERRESTRIAL] * 4 + [Layer.AERIAL],
    )


STRICT_WIDE = SusParams(alpha=0.9)


def test_total_sweep_names_an_earlier_singular_row_before_a_later_scheduling_error():
    pool = collinear_pool()
    only_sus = {SelectionMethod.SUS}
    # k = 5 is where pruning runs dry, the rank a pruning-only scheduler stops at
    assert sus_select(pool, 5, STRICT_WIDE).fallback_used_from == 4
    # row by row, k = 4 (e0, e1, e2, s) is evaluated before k = 5 is scheduled
    with pytest.raises(IllConditionedError, match=r"method=sus, k=4, trial=0"):
        sweep_total_users(pool, [1, 2, 3, 4, 5], methods=only_sus, params=STRICT_WIDE)
    # every random row is evaluated before the first SUS row is scheduled
    with pytest.raises(IllConditionedError, match=r"method=random, k=3, trial=0"):
        sweep_total_users(duplicated_channel_pool(), [1, 2, 3], trials=1)


def test_grid_names_an_earlier_singular_cell_before_a_later_scheduling_error():
    pool = collinear_pool()
    quota = {Layer.TERRESTRIAL: 4, Layer.AERIAL: 0}
    assert sus_select_layered(pool, quota, STRICT_WIDE).fallback_used_from == 3
    with pytest.raises(IllConditionedError, match=r"k_ground=3, k_aerial=0"):
        sweep_layer_grid(pool, [3, 4], [0, 1], params=STRICT_WIDE)


def test_earliest_failing_row_wins_across_schedule_sizes():
    # the size-2 stack is evaluated first, but its failing row comes later
    pool = collinear_pool()
    good = SelectionResult((0, 1), pool.layer_counts((0, 1)), SelectionMethod.EXHAUSTIVE)
    triple = SelectionResult((0, 1, 2), pool.layer_counts((0, 1, 2)), SelectionMethod.EXHAUSTIVE)
    copies = SelectionResult((0, 3), pool.layer_counts((0, 3)), SelectionMethod.EXHAUSTIVE)
    scheduled = [("first", good, 0), ("second", triple, 0), ("third", copies, 0)]
    with pytest.raises(IllConditionedError, match=r"^second: "):
        _schedule_then_evaluate(pool, iter(scheduled))
    [row] = _schedule_then_evaluate(pool, iter(scheduled[:1]))
    assert row.sum_se == evaluate_selection(pool, good).sum_se


# ---------------------------------------------------------------------------
# unconstrained vs. layered coherence
# ---------------------------------------------------------------------------

def test_quota_matching_realized_counts_reproduces_unconstrained():
    pool = two_layer_random_pool(seed=11, n_per_layer=10, m=8)
    for k in (3, 6, 9):
        unconstrained = sus_select(pool, k)
        quota = dict(unconstrained.per_layer_counts)
        layered = sus_select_layered(pool, quota)
        assert layered.chosen == unconstrained.chosen


@pytest.mark.xfail(
    reason="greedy selection is not optimal: a layer cap can steer it away from "
    "high-correlation picks and beat the unconstrained run, so the 'constraints "
    "cannot help' bound only holds for exhaustive-optimal selection",
)
def test_unconstrained_dominates_every_layered_split(default_pool):
    params = SusParams()
    for k in (24, 41):
        unconstrained = evaluate_selection(default_pool, sus_select(default_pool, k, params)).sum_se
        best_split = max(
            evaluate_selection(
                default_pool,
                sus_select_layered(
                    default_pool, {Layer.TERRESTRIAL: kg, Layer.AERIAL: k - kg}, params
                ),
            ).sum_se
            for kg in range(max(0, k - 28), min(36, k) + 1)
        )
        assert unconstrained >= best_split - 1e-9


# ---------------------------------------------------------------------------
# CSV rendering
# ---------------------------------------------------------------------------

def test_csv_header_and_shape():
    pool = two_layer_random_pool()
    table = sweep_total_users(pool, [2], methods={SelectionMethod.SUS})
    text = table.csv_text()
    lines = text.splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines) == 2
    fields = lines[1].split(",")
    assert fields[0] == "sus"
    assert fields[1] == "2"
    assert fields[7] == "" or fields[7].isdigit()


def test_csv_six_significant_digits():
    row = manual_row(SelectionMethod.SUS, 3, 0, 0, sum_se=123.4567891, fallback=2)
    assert row.csv_line() == "sus,3,3,0,0,123.457,41.1523,2"
