import contextlib
import dataclasses
import tempfile
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    FUZZ_EXAMPLES,
    K_PAST_M,
    NOT_INTEGERS,
    assert_row_is,
    layer_counts_of,
    method_lines,
    not_an_integer,
    pool_from_vectors,
    random_unit_channels,
    text_file_bytes,
    unscheduled,
)
from mimoshare import csi, zfmetrics
from mimoshare.cli import main
from mimoshare.csi import CsiDataset, Layer
from mimoshare.sched import (
    SelectionMethod,
    SelectionResult,
    SusParams,
    random_select,
    sus_select,
    sus_select_layered,
)
from mimoshare.sweeps import (
    CSV_HEADER,
    SweepRow,
    SweepTable,
    _METHODS,
    _RangeError,
    _table,
    _trial_seed,
    find_peak,
    max_users_for_min_se,
    sweep_layer_grid,
    sweep_total_users,
)
from mimoshare.zfmetrics import IllConditionedError, evaluate_selection
from oracle_reference import per_subset_oracle


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
    )


def table_of(rows):
    return SweepTable.from_rows(rows, meta={})


def csv_line(row):
    """The line csv_text writes for ``row``."""
    return table_of([row]).csv_text().splitlines()[1]


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
    assert a == b  # every column and meta
    assert a.csv_text() == b.csv_text()


def replayed(pool, row, seed=0):
    """Row's schedule, drawn again by the public selector of its method."""
    if row.method is SelectionMethod.RANDOM:
        return random_select(pool, row.k_total, _trial_seed(seed, row.k_total, row.trial))
    if row.method is SelectionMethod.SUS:
        return sus_select(pool, row.k_total)
    return sus_select_layered(pool, {Layer.TERRESTRIAL: row.k_ground, Layer.AERIAL: row.k_aerial})


def test_rows_reevaluate_exactly():
    pool = two_layer_random_pool(seed=6)
    table = sweep_total_users(pool, range(1, 8), trials=2, seed=0)
    for row in table.rows:
        assert_row_is(pool, row, replayed(pool, row))


def test_random_rows_are_random_selects_draws():
    pool = two_layer_random_pool(seed=6)
    seed = 5
    table = sweep_total_users(pool, range(1, 8), trials=3, seed=seed)
    random_rows = [row for row in table.rows if row.method is SelectionMethod.RANDOM]
    assert len(random_rows) == 7 * 3
    for row in random_rows:
        assert_row_is(pool, row, replayed(pool, row, seed))


def test_rows_replay_on_sparse_record_ids():
    # ids distinct, gapped and in no order: no pool row is its own record id
    rng = np.random.default_rng(8)
    layers = [Layer.TERRESTRIAL] * 10 + [Layer.AERIAL] * 10
    ids = rng.choice(10**6, size=20, replace=False)
    pool = pool_from_vectors(random_unit_channels(rng, 20, 8), layers, ids=ids)
    drawn = np.random.default_rng(11).choice(20, size=5, replace=False)
    assert random_select(pool, 5, 11).chosen == tuple(ids[drawn].tolist())
    seed = 5
    table = sweep_total_users(pool, range(1, 8), trials=3, seed=seed)
    for row in table.rows:
        assert_row_is(pool, row, replayed(pool, row, seed))
    grid = sweep_layer_grid(pool, range(4), range(4))
    for row in grid.rows:
        assert_row_is(pool, row, replayed(pool, row))


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
    with pytest.raises(ValueError, match="no sweep methods"):
        sweep_total_users(pool, [1], methods=())


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
    assert [row.k_ground for row in table.rows] == [1, 2, 3]
    for row in table.rows:
        assert row.k_aerial == 0
        selection = sus_select_layered(pool, {Layer.TERRESTRIAL: row.k_ground})
        assert layer_counts_of(pool, selection.chosen)[Layer.TERRESTRIAL] == row.k_ground
        assert_row_is(pool, row, selection)


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


@pytest.mark.parametrize("value", NOT_INTEGERS, ids=repr)
@pytest.mark.parametrize("key", ["ground_range", "aerial_range"])
def test_grid_rejects_a_quota_that_is_not_an_integer(key, value):
    ranges = {"ground_range": [0, 1], "aerial_range": [0, 1], key: [1, value]}
    name = key.replace("_", " ")
    with unscheduled(), pytest.raises(TypeError, match=not_an_integer(name, value)):
        sweep_layer_grid(two_layer_random_pool(), **ranges)


@pytest.mark.parametrize("value", NOT_INTEGERS, ids=repr)
def test_total_sweep_rejects_a_k_or_trial_count_that_is_not_an_integer(value):
    pool = two_layer_random_pool()
    with unscheduled(), pytest.raises(TypeError, match=not_an_integer("k range", value)):
        sweep_total_users(pool, [2, value])
    with unscheduled(), pytest.raises(TypeError, match=not_an_integer("trials", value)):
        sweep_total_users(pool, [2], trials=value)


def test_grid_with_only_the_origin_cell_is_rejected():
    pool = two_layer_random_pool()
    with pytest.raises(ValueError, match=r"only cell is \(0, 0\)"):
        sweep_layer_grid(pool, [0], [0])


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
    return table_of(rows)


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
    assert max_users_for_min_se(table_of(rows), SelectionMethod.RANDOM, 8.0) == 2


def test_max_users_errors():
    with pytest.raises(ValueError):
        max_users_for_min_se(table_of([]), SelectionMethod.SUS, 1.0)
    with pytest.raises(ValueError):
        max_users_for_min_se(threshold_table(), SelectionMethod.RANDOM, 1.0)


def test_find_peak_single_row():
    table = table_of([manual_row(SelectionMethod.SUS, 3, 2, 0, 11.5)])
    assert find_peak(table) == (3, 2, 11.5)


def test_find_peak_monotone_surface_hits_corner():
    rows = tuple(
        manual_row(SelectionMethod.SUS_LAYERED, kg, ka, 0, sum_se=float(kg + ka))
        for kg in range(0, 4)
        for ka in range(0, 3)
        if (kg, ka) != (0, 0)
    )
    assert find_peak(table_of(rows)) == (3, 2, 5.0)


def test_find_peak_tie_breaks():
    rows = (
        manual_row(SelectionMethod.SUS_LAYERED, 4, 2, 0, 10.0),
        manual_row(SelectionMethod.SUS_LAYERED, 3, 2, 0, 10.0),  # fewer total users wins
        manual_row(SelectionMethod.SUS_LAYERED, 4, 1, 0, 10.0),  # fewer aerial wins at same total
    )
    assert find_peak(table_of(rows)) == (4, 1, 10.0)
    with pytest.raises(ValueError):
        find_peak(table_of([]))


# ---------------------------------------------------------------------------
# exhaustive oracle
# ---------------------------------------------------------------------------

def test_oracle_orthogonal_pool_full_choice():
    pool = pool_from_vectors(np.eye(4))
    ids, best = per_subset_oracle(pool, 4)
    assert ids == (0, 1, 2, 3)
    assert best > 0


def test_oracle_prefers_orthogonal_pair():
    pool = pool_from_vectors([[2.0, 0.0], [1.9, 0.1], [0.0, 1.0]])
    ids, best = per_subset_oracle(pool, 2)
    assert ids == (0, 2)  # near-parallel pair suffers ZF noise amplification


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
        sweep_total_users(pool, [1, 2, 3, 4], methods=only_sus, params=STRICT_WIDE)
    # but 5 users are more than the 4 antennas can null: that range fails
    # before any row is scheduled
    with unscheduled(), pytest.raises(_RangeError, match=K_PAST_M.format(5, 4)):
        sweep_total_users(pool, [1, 2, 3, 4, 5], methods=only_sus, params=STRICT_WIDE)
    # every random row is evaluated before the first SUS row is scheduled
    with pytest.raises(IllConditionedError, match=r"method=random, k=3, trial=0"):
        sweep_total_users(duplicated_channel_pool(), [1, 2, 3], trials=1)


def test_grid_names_an_earlier_singular_cell_before_a_later_scheduling_error():
    pool = collinear_pool()
    quota = {Layer.TERRESTRIAL: 4, Layer.AERIAL: 0}
    assert sus_select_layered(pool, quota, STRICT_WIDE).fallback_used_from == 3
    with pytest.raises(IllConditionedError, match=r"k_ground=3, k_aerial=0"):
        sweep_layer_grid(pool, [3, 4], [0], params=STRICT_WIDE)
    with unscheduled(), pytest.raises(_RangeError, match=K_PAST_M.format(5, 4)):
        sweep_layer_grid(pool, [3, 4], [0, 1], params=STRICT_WIDE)


def record_lookups_fail():
    """A context in which a record-id lookup or a SelectionResult fails with AssertionError."""
    stack = contextlib.ExitStack()
    for owner, name in ((CsiDataset, "channels_for"), (SelectionResult, "__post_init__")):
        stack.enter_context(mock.patch.object(owner, name, side_effect=AssertionError(name)))
    return stack


def test_the_sweeps_schedule_and_evaluate_in_pool_rows(mini_pool):
    # from the scheduler to the table a schedule stays pool rows: no record
    # id is looked up and no SelectionResult is built, failing cells included
    pool = collinear_pool()
    sweeps = [
        lambda: sweep_total_users(mini_pool, range(1, 25), trials=3, seed=2),
        lambda: sweep_layer_grid(mini_pool, range(0, 13, 2), range(0, 13, 3)),
        lambda: sweep_total_users(pool, [1, 2, 3, 4], methods={SelectionMethod.SUS},
                                  params=STRICT_WIDE),
        lambda: sweep_layer_grid(pool, [3, 4], [0], params=STRICT_WIDE),
    ]
    expected = [sweep_outcome(sweep) for sweep in sweeps]
    assert expected[2].startswith("cell (method=sus, k=4, trial=0): Gram condition number ")
    assert expected[3].startswith("cell (k_ground=3, k_aerial=0): Gram condition number ")
    with record_lookups_fail():
        assert [sweep_outcome(sweep) for sweep in sweeps] == expected


def test_earliest_failing_row_wins_across_schedule_sizes():
    # the size-2 stack is evaluated first, but its failing row comes later
    pool = collinear_pool()
    random = SelectionMethod.RANDOM
    scheduled = [(random, 0, (0, 1), None), (random, 1, (0, 1, 2), None), (random, 2, (0, 3), None)]
    with pytest.raises(IllConditionedError, match=r"^cell \(method=random, k=3, trial=1\): "):
        _table(pool, iter(scheduled))
    [row] = _table(pool, iter(scheduled[:1])).rows
    assert_row_is(pool, row, SelectionResult((0, 1), layer_counts_of(pool, (0, 1)), random))
    # at 6 channel rows a stack, the size-2 stack fills at row 3 and is
    # evaluated, failing at row 1, while row 0's size-3 stack is still partial
    scheduled = [(random, 0, (0, 1, 2), None), (random, 1, (0, 3), None),
                 (random, 2, (0, 1), None), (random, 3, (1, 4), None)]
    screen = mock.patch.object(zfmetrics, "_screened_sinr", wraps=zfmetrics._screened_sinr)
    with mock.patch.object(csi, "_ROW_BLOCK", 6), screen as spy:
        with pytest.raises(IllConditionedError) as failed:
            _table(pool, iter(scheduled))
    assert [call.args[0].shape[:2] for call in spy.call_args_list] == [(3, 2), (1, 3)]
    with pytest.raises(IllConditionedError) as alone:
        _table(pool, iter(scheduled[:1]))
    assert str(alone.value).startswith("cell (method=random, k=3, trial=0): ")
    assert str(failed.value) == str(alone.value)


# ---------------------------------------------------------------------------
# evaluation stacks
# ---------------------------------------------------------------------------

def sweep_outcome(sweep):
    """A sweep's table, or the message of the error it fails with."""
    try:
        return sweep()
    except IllConditionedError as exc:
        return str(exc)


@settings(derandomize=True, deadline=None, max_examples=40)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 6), spare_antennas=st.integers(-2, 4),
       duplicate=st.sampled_from([False, False, True]), grid=st.booleans(),
       trials=st.integers(1, 3), rows_per_stack=st.integers(2, 40))
def test_a_schedules_result_does_not_depend_on_its_stack(seed, n, spare_antennas, duplicate, grid,
                                                         trials, rows_per_stack):
    # n users a layer and 2n + spare_antennas antennas: the ranges stop at M,
    # and where that is below 2n the full ranges fail as ranges; a copied
    # record makes every schedule that holds both copies singular
    m = max(1, 2 * n + spare_antennas)
    vectors = random_unit_channels(np.random.default_rng(seed), 2 * n, m)
    if duplicate:
        vectors[1] = vectors[0]
    pool = pool_from_vectors(vectors, [Layer.TERRESTRIAL] * n + [Layer.AERIAL] * n)

    def sweep(users):
        """The sweep of the ranges whose largest schedule holds ``min(users, 2n)``."""
        if grid:
            grounds = range(min(n, users) + 1)
            return sweep_layer_grid(pool, grounds, range(min(n, users - grounds[-1]) + 1))
        return sweep_total_users(pool, range(1, min(2 * n, users) + 1), trials=trials, seed=seed)

    outcomes = []
    # one schedule a stack, some schedules a stack, and one stack a size
    for bound in (1, rows_per_stack, 10**9):
        with mock.patch.object(csi, "_ROW_BLOCK", bound):
            outcomes.append(sweep_outcome(lambda: sweep(m)))
    assert outcomes[0] == outcomes[1] == outcomes[2]  # tables compare schedules too
    if m < 2 * n:
        with unscheduled(), pytest.raises(_RangeError, match=K_PAST_M.format(2 * n, m)):
            sweep(2 * n)


def test_the_sweeps_run_no_lu_inverse_or_solve(default_pool, monkeypatch):
    # R^-1 is inverted as a triangle; zf_combiner's LU inverse is reached only
    # to word a rejected schedule, and these sweeps clear every schedule
    def refused(*args, **kwargs):
        raise AssertionError("an LU inverse or solve ran on the sweep path")

    monkeypatch.setattr(np.linalg, "inv", refused)
    monkeypatch.setattr(np.linalg, "solve", refused)
    assert len(sweep_total_users(default_pool, range(1, 65), trials=1).rows) == 64 * 2
    grid = sweep_layer_grid(default_pool, range(0, 37, 3), (*range(0, 28, 3), 28))
    assert len(grid.rows) == 13 * 11 - 1


# stacks of at most _ROW_BLOCK channel rows, each evaluated as it fills, take
# ~1.0 MiB above the table on the total sweep and ~1.6 MiB on the grid, whose
# SUS branch states coexist with the stack temporaries (tracemalloc); one
# stack of all 21 schedules of K = 64 with its copies takes ~5.1 MiB, and the
# grid's one stack a size ~3.1 MiB
SWEEP_WORKING_SET_MARGIN_MB = 2


@pytest.mark.parametrize("sweep", [
    lambda pool: sweep_total_users(pool, range(1, 65), trials=20),
    lambda pool: sweep_layer_grid(pool, range(37), range(29)),
], ids=["total", "grid"])
def test_a_sweeps_working_set_stays_near_its_table(default_pool, sweep):
    sweep_total_users(default_pool, [1, 64], trials=1)  # warm-up: first-call allocations
    tracemalloc.start()
    try:
        table = sweep(default_pool)
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(table.rows) in (64 * 21, 37 * 29 - 1)
    over_mb = (peak - retained) / 2**20
    assert over_mb < SWEEP_WORKING_SET_MARGIN_MB, (
        f"the sweep peaked {over_mb:.2f} MiB above its retained table")


# the default total-users sweep at 100 trials holds 6,464 rows: ~0.32 MiB as
# columns (tracemalloc), ~1.96 MiB when the table also kept its 210,080
# schedule ids and ~11.5 MiB when each row kept its schedule as objects; the
# sweep peaks at ~1.45 MiB, ~1.1 MiB above its table
TABLE_AT_100_TRIALS_MB = 1
SWEEP_PEAK_AT_100_TRIALS_MB = 3


def test_a_sweeps_table_and_peak_do_not_grow_with_objects_per_row(default_pool):
    sweep_total_users(default_pool, [1, 64], trials=1)  # warm-up: first-call allocations
    tracemalloc.start()
    try:
        table = sweep_total_users(default_pool, range(1, 65), trials=100)
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(table.rows) == 64 * 101
    retained_mb, peak_mb = retained / 2**20, peak / 2**20
    assert retained_mb <= TABLE_AT_100_TRIALS_MB, f"the table holds {retained_mb:.2f} MiB"
    assert peak_mb <= SWEEP_PEAK_AT_100_TRIALS_MB, f"the sweep peaked at {peak_mb:.2f} MiB"


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
    assert csv_line(row) == "sus,3,3,0,0,123.457,41.1523,2"


@st.composite
def sweep_rows(draw):
    """Any row a sweep could write: counts that add up, finite SE >= 0, a fallback rank in range."""
    k_ground = draw(st.integers(0, 64))
    k_aerial = draw(st.integers(0 if k_ground else 1, 64))
    se = st.floats(min_value=0, allow_infinity=False)
    return SweepRow(
        method=draw(st.sampled_from(SelectionMethod)),
        k_total=k_ground + k_aerial,
        k_ground=k_ground,
        k_aerial=k_aerial,
        trial=draw(st.integers(0, 10**6)),
        sum_se=draw(se),
        mean_individual_se=draw(se),
        fallback_rank=draw(st.none() | st.integers(0, k_ground + k_aerial - 1)),
    )


@settings(max_examples=50, deadline=None)
@given(rows=st.lists(sweep_rows(), max_size=20))
def test_from_csv_reads_back_what_csv_text_writes(rows):
    text = table_of(rows).csv_text()
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "sweep.csv"
        path.write_text(text)
        assert SweepTable.from_csv(path).csv_text() == text


@pytest.mark.parametrize("sweep", [
    lambda pool: sweep_total_users(pool, range(1, 9), trials=3, seed=2),
    lambda pool: sweep_layer_grid(pool, range(5), range(5)),
], ids=["total", "grid"])
def test_a_sweeps_csv_reads_back_as_the_table_it_summarizes(tmp_path, sweep):
    # the sweep summarizes its CSV text read back, and report what from_csv reads: both
    # are the sweep's table with its SE rounded as the CSV writes it
    table = sweep(two_layer_random_pool(seed=6))
    as_written = dataclasses.replace(table, **{
        name: np.array([float(f"{se:.6g}") for se in getattr(table, name).tolist()])
        for name in ("sum_se", "mean_individual_se")})
    text = table.csv_text()
    assert SweepTable._from_lines(text.splitlines(), "sweep.csv", table.meta) == as_written
    path = tmp_path / "sweep.csv"
    path.write_text(text)
    assert dataclasses.replace(SweepTable.from_csv(path), meta=table.meta) == as_written


# the scenario of tests/data/mini_grid.cfg: 41 records per layer
MINI_SCENARIO = ["--m-rows", "4", "--m-cols", "4", "--trajectory-length-m", "4",
                 "--trajectory-speed-mps", "1", "--sample-interval-ms", "100",
                 "--pool-terrestrial", "10", "--pool-aerial", "10"]


@st.composite
def small_sweeps(draw):
    """CLI arguments of a small sweep of either kind: a 4 x 4 array, 10 users per layer."""
    if draw(st.booleans()):
        lo = draw(st.integers(1, 16))
        args = ["sweep-total", "--k-range", f"{lo}:{draw(st.integers(lo, 16))}",
                "--trials", draw(st.integers(1, 3))]
    else:
        ground = draw(st.integers(0, 8))
        args = ["sweep-grid", "--ground-range", f"0:{ground}",
                "--aerial-range", f"0:{draw(st.integers(0 if ground else 1, 8))}"]
    thresholds = draw(st.lists(st.sampled_from("12468"), min_size=1, max_size=3))
    return [*args, "--seed", draw(st.integers(0, 99)),
            "--alpha", draw(st.sampled_from(["0.3", "0.6", "1"])),
            "--thresholds", ",".join(thresholds), *MINI_SCENARIO]


def k_mean_individual_se(table):
    """Each method's and k's mean individual SE, as ``max_users_for_min_se`` averages it."""
    means = []
    for code in sorted(set(table.method_codes.tolist())):
        mine = table._only(_METHODS[code])
        k_total = mine.k_ground + mine.k_aerial
        means += [float(np.mean(mine.mean_individual_se[k_total == k]))
                  for k in sorted(set(k_total.tolist()))]
    return means


# each example runs three commands, so it takes a third of the fuzz budget
@settings(derandomize=True, deadline=None, max_examples=FUZZ_EXAMPLES // 3)
@given(args=small_sweeps())
def test_a_sweeps_summary_is_what_report_reads_from_its_csv(args):
    args = [str(arg) for arg in args]
    at = args.index("--thresholds") + 1
    with tempfile.TemporaryDirectory() as tmp:
        first_dir, sweep_dir, report_dir = (Path(tmp) / name
                                            for name in ("first", "sweep", "report"))
        # a first run's written table gives each k's mean individual SE as a
        # threshold: k meets it in the rounded table and misses it in the
        # unrounded one where its values rounded up, and no larger k makes up
        # for the sweep's largest, so a summary of the unrounded table differs
        assert main([*args, "--out", str(first_dir)]) == 0
        written = SweepTable.from_csv(first_dir / "sweep.csv")
        args[at] = ",".join([args[at], *map(repr, k_mean_individual_se(written))])
        assert main([*args, "--out", str(sweep_dir)]) == 0
        assert (sweep_dir / "sweep.csv").read_bytes() == (first_dir / "sweep.csv").read_bytes()
        assert main(["report", "--table", str(sweep_dir / "sweep.csv"), "--out", str(report_dir),
                     "--thresholds", args[at]]) == 0
        expected = method_lines(sweep_dir / "summary.txt")
        assert expected and method_lines(report_dir / "summary.txt") == expected


@pytest.mark.parametrize("text", ["", "\n", "sus,1,1,0,0,2,2,\n", f"\n{CSV_HEADER}\nsus,1,1,0,0,2,2,\n",
                                  f"{CSV_HEADER.upper()}\nsus,1,1,0,0,2,2,\n"])
def test_a_file_that_does_not_start_with_the_header_is_no_sweep_table(tmp_path, text):
    path = tmp_path / "sweep.csv"
    path.write_text(text)
    with pytest.raises(ValueError, match=rf"^{path}: not a sweep table \(unexpected header\)$"):
        SweepTable.from_csv(path)


@pytest.mark.parametrize("line", ["sus,1,1,0,9223372036854775808,2,2,",
                                  "sus,9223372036854775808,9223372036854775808,0,0,2,2,"])
def test_a_count_beyond_the_int64_columns_is_named(tmp_path, line):
    path = tmp_path / "sweep.csv"
    path.write_text(f"{CSV_HEADER}\nsus,1,1,0,0,2,2,\n{line}\n")
    with pytest.raises(ValueError, match=rf"^{path}:3: k_total and trial must be below 2\*\*63"):
        SweepTable.from_csv(path)
    path.write_text(f"{CSV_HEADER}\n{line.replace('9223372036854775808', '9223372036854775807')}\n")
    assert SweepTable.from_csv(path).csv_text() == path.read_text()


@settings(derandomize=True, deadline=None, max_examples=FUZZ_EXAMPLES)
@given(data=text_file_bytes(sweep_rows().map(csv_line), header=CSV_HEADER))
def test_any_table_file_is_read_or_named(data):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "sweep.csv"
        path.write_bytes(data)
        try:
            SweepTable.from_csv(path)
        except ValueError as exc:
            assert str(exc).startswith(f"{path}:")
