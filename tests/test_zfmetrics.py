import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import pool_from_vectors, random_unit_channels
from mimoshare.csi import Layer
from mimoshare.sched import SelectionMethod, SelectionResult, sus_select
from mimoshare.zfmetrics import (
    CombinerMatrix,
    IllConditionedError,
    evaluate_selection,
    sinr,
    spectral_efficiency,
    stacked_sinr,
    sum_se,
    zf_combiner,
)

LOG2_101 = math.log2(101.0)  # SE of a single user at 20 dB: 6.65821...


def gaussian_elimination_solve(a, b):
    """Textbook partial-pivot elimination; test-side oracle for Gram systems."""
    a = np.array(a, dtype=np.complex128)
    b = np.array(b, dtype=np.complex128)
    n = a.shape[0]
    for col in range(n):
        pivot = col + int(np.argmax(np.abs(a[col:, col])))
        a[[col, pivot]] = a[[pivot, col]]
        b[[col, pivot]] = b[[pivot, col]]
        for row in range(col + 1, n):
            f = a[row, col] / a[col, col]
            a[row, col:] -= f * a[col, col:]
            b[row] -= f * b[col]
    x = np.zeros_like(b)
    for row in range(n - 1, -1, -1):
        x[row] = (b[row] - a[row, row + 1 :] @ x[row + 1 :]) / a[row, row]
    return x


# ---------------------------------------------------------------------------
# combiner
# ---------------------------------------------------------------------------

def test_zf_identity_channels():
    comb = zf_combiner(np.eye(2))
    assert np.allclose(comb.matrix, np.eye(2), atol=1e-12)
    assert comb.gram_condition == pytest.approx(1.0, rel=1e-12)


def test_zf_diagonal_gram_by_hand():
    channels = np.array([[2.0, 0.0, 0.0], [0.0, 1.0, 0.0]])  # Gram diag(4, 1)
    comb = zf_combiner(channels)
    assert np.allclose(comb.matrix[:, 0], [0.5, 0.0, 0.0], atol=1e-12)
    assert np.allclose(comb.matrix[:, 1], [0.0, 1.0, 0.0], atol=1e-12)


def test_zf_matches_elimination_oracle():
    rng = np.random.default_rng(123)
    channels = (rng.standard_normal((5, 8)) + 1j * rng.standard_normal((5, 8))) / np.sqrt(2)
    comb = zf_combiner(channels)
    h = channels.T
    gram = channels.conj() @ channels.T
    v_oracle = h @ gaussian_elimination_solve(gram, np.eye(5, dtype=np.complex128))
    assert np.abs(comb.matrix - v_oracle).max() < 1e-10
    assert np.abs(comb.matrix.conj().T @ h - np.eye(5)).max() < 1e-9


def test_zf_rejects_more_users_than_antennas():
    with pytest.raises(IllConditionedError):
        zf_combiner(np.ones((3, 2)))


def test_zf_rejects_singular_gram():
    h = np.array([[1.0, 0.0], [1.0, 0.0]])  # duplicated channel
    with pytest.raises(IllConditionedError):
        zf_combiner(h)


def test_zf_rejects_condition_above_cap():
    h1 = np.array([1.0, 0.0, 0.0], dtype=complex)
    h2 = h1 + 1e-6 * np.array([0.0, 1.0, 0.0])  # Gram condition ~ 4e12
    with pytest.raises(IllConditionedError):
        zf_combiner(np.stack([h1, h2]))
    # a generous cap admits the same pair
    comb = zf_combiner(np.stack([h1, h2]), cond_cap=1e16)
    assert comb.gram_condition > 1e10


# ---------------------------------------------------------------------------
# SINR
# ---------------------------------------------------------------------------

def test_sinr_identity_channels():
    channels = np.eye(4)
    comb = zf_combiner(channels)
    values = sinr(comb, channels, tx_power=1.0, noise_power=0.01)
    assert np.allclose(values, 100.0, rtol=1e-9)


def test_sinr_zf_closed_form():
    rng = np.random.default_rng(9)
    channels = random_unit_channels(rng, 6, 12)
    comb = zf_combiner(channels)
    values = sinr(comb, channels, tx_power=2.0, noise_power=0.05)
    closed = 2.0 / (0.05 * np.sum(np.abs(comb.matrix) ** 2, axis=0))
    assert np.abs(values / closed - 1.0).max() < 1e-9


def test_sinr_matched_filter_literal_interference():
    channels = np.array([[1.0, 0.0], [0.8, 0.6]])
    matched = CombinerMatrix(matrix=channels.T.copy(), gram_condition=float("nan"))
    values = sinr(matched, channels, tx_power=1.0, noise_power=0.01)
    # 1 / (0.64 + 0.01) by direct substitution
    assert values[0] == pytest.approx(1.5385, abs=1e-4)


def test_sinr_validates_inputs():
    channels = np.eye(3)
    comb = zf_combiner(channels)
    with pytest.raises(ValueError):
        sinr(comb, np.eye(4), 1.0, 0.01)
    with pytest.raises(ValueError):
        sinr(comb, channels, 0.0, 0.01)
    with pytest.raises(ValueError):
        sinr(comb, channels, 1.0, -1.0)


# ---------------------------------------------------------------------------
# spectral efficiency
# ---------------------------------------------------------------------------

def test_se_values():
    se = spectral_efficiency([0.0, 1.0, 100.0])
    assert se[0] == 0.0
    assert se[1] == pytest.approx(1.0, rel=1e-12)
    assert se[2] == pytest.approx(6.65821, abs=1e-5)


def test_se_rejects_negative():
    with pytest.raises(ValueError):
        spectral_efficiency([-0.1])


def test_sum_se_values():
    assert sum_se([]) == 0.0
    assert sum_se([1.0, 2.0, 3.0]) == pytest.approx(6.0, rel=1e-12)
    # 56 users averaging 6.3375 bits/s/Hz sum to the published 354.9
    assert sum_se([6.3375] * 56) == pytest.approx(354.9, abs=1e-9)


def test_sum_se_rejects_negative():
    with pytest.raises(ValueError):
        sum_se([1.0, -2.0])


# ---------------------------------------------------------------------------
# evaluate_selection
# ---------------------------------------------------------------------------

def one_layer_selection(ids):
    return SelectionResult(
        tuple(ids),
        {Layer.TERRESTRIAL: len(ids), Layer.AERIAL: 0},
        SelectionMethod.EXHAUSTIVE,
    )


def test_evaluate_single_user_at_20db():
    pool = pool_from_vectors([np.array([1.0, 0.0, 0.0])])
    report = evaluate_selection(pool, one_layer_selection([0]))
    assert report.sum_se == pytest.approx(LOG2_101, abs=1e-5)
    assert report.per_user_sinr[0] == pytest.approx(100.0, rel=1e-9)


def test_evaluate_two_orthogonal_users():
    pool = pool_from_vectors([np.array([1.0, 0.0]), np.array([0.0, 1.0])])
    report = evaluate_selection(pool, one_layer_selection([0, 1]))
    assert np.allclose(report.per_user_se, LOG2_101, atol=1e-5)
    assert report.sum_se == pytest.approx(2 * LOG2_101, abs=1e-5)


def test_evaluate_duplicate_channel_is_singular():
    pool = pool_from_vectors([np.array([1.0, 0.0]), np.array([1.0, 0.0])])
    with pytest.raises(IllConditionedError):
        evaluate_selection(pool, one_layer_selection([0, 1]))


def test_evaluate_requires_normalized_pool():
    from mimoshare.csi import CsiDataset, CsiRecord

    record = CsiRecord(0, Layer.TERRESTRIAL, 0, np.array([1.0, 0.0]))
    raw = CsiDataset(records=(record,), m_antennas=2)
    with pytest.raises(ValueError):
        evaluate_selection(raw, one_layer_selection([0]))


def test_report_sum_matches_per_user_entries(mini_pool):
    report = evaluate_selection(mini_pool, sus_select(mini_pool, 7))
    assert report.sum_se == float(np.sum(report.per_user_se))


# ---------------------------------------------------------------------------
# invariants
# ---------------------------------------------------------------------------

def test_nulling_and_unit_diagonal_on_random_instances():
    rng = np.random.default_rng(55)
    for trial in range(25):
        m = int(rng.integers(4, 17))
        k = int(rng.integers(1, m + 1))
        channels = random_unit_channels(rng, k, m)
        comb = zf_combiner(channels)
        cross = comb.matrix.conj().T @ channels.T
        off = np.abs(cross - np.eye(k))
        assert off.max() < 1e-8
        assert np.abs(np.diagonal(cross) - 1.0).max() < 1e-8


def test_joint_scale_invariance_of_sinr():
    rng = np.random.default_rng(66)
    channels = random_unit_channels(rng, 5, 9)
    base = sinr(zf_combiner(channels), channels, 1.0, 0.01)
    for c in (0.25, 3.0):
        scaled = sinr(zf_combiner(c * channels), c * channels, 1.0, 0.01 * c * c)
        assert np.abs(scaled / base - 1.0).max() < 1e-9


def test_appending_a_user_never_raises_incumbent_sinr():
    rng = np.random.default_rng(88)
    for trial in range(10):
        channels = random_unit_channels(rng, 9, 12)
        previous = None
        for k in range(2, 10):
            sub = channels[:k]
            values = sinr(zf_combiner(sub), sub, 1.0, 0.01)
            if previous is not None:
                assert np.all(values[: k - 1] <= previous * (1.0 + 1e-9))
            previous = values


# ---------------------------------------------------------------------------
# stacked core
# ---------------------------------------------------------------------------

HYPOTHESIS = settings(derandomize=True, deadline=None, max_examples=80)


@st.composite
def schedule_stacks(draw):
    """(B, K, M) channel stacks, K = M included, some schedules near the condition cap.

    A near-cap schedule repeats its first channel plus a perturbation of size
    eps, which puts its Gram condition number near 1 / eps^2 (1e7 .. 1e12,
    either side of the 1e10 cap).
    """
    m = draw(st.integers(1, 12))
    k = m if draw(st.booleans()) else draw(st.integers(1, m))
    b = draw(st.integers(1, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    stack = np.stack([random_unit_channels(rng, k, m) for _ in range(b)])
    if k > 1:
        for row in draw(st.lists(st.integers(0, b - 1), max_size=b, unique=True)):
            eps = 10.0 ** draw(st.floats(-6.0, -3.5))
            stack[row, 1] = stack[row, 0] + eps * stack[row, 1]
    return stack


@HYPOTHESIS
@given(stack=schedule_stacks(), noise_power=st.floats(1e-4, 1.0))
def test_stacked_core_equals_per_schedule_path(stack, noise_power):
    per_row = []
    for channels in stack:
        try:
            per_row.append(sinr(zf_combiner(channels), channels, 2.0, noise_power))
        except IllConditionedError:
            per_row.append(None)
    failed = [b for b, values in enumerate(per_row) if values is None]
    if failed:
        with pytest.raises(IllConditionedError) as info:
            stacked_sinr(stack, 2.0, noise_power)
        assert info.value.index == failed[0]
        return
    stacked = stacked_sinr(stack, 2.0, noise_power)
    assert stacked.shape == stack.shape[:2]
    for b, values in enumerate(per_row):
        assert np.array_equal(stacked[b], values)


@HYPOTHESIS
@given(
    seed=st.integers(0, 2**32 - 1),
    m=st.integers(1, 12),
    data=st.data(),
    c=st.floats(1e-3, 1e3),
    noise_power=st.floats(1e-4, 1.0),
)
def test_joint_scale_invariance_property(seed, m, data, c, noise_power):
    # SINR(c H, c^2 sigma^2) = SINR(H, sigma^2): the combiner scales by 1/c
    k = data.draw(st.integers(1, m))
    channels = random_unit_channels(np.random.default_rng(seed), k, m)
    comb = zf_combiner(channels)
    assume(comb.gram_condition < 1e6)
    base = sinr(comb, channels, 1.0, noise_power)
    scaled = sinr(zf_combiner(c * channels), c * channels, 1.0, noise_power * c * c)
    assert np.abs(scaled / base - 1.0).max() < 1e-9


def test_stacked_error_names_the_first_failing_schedule():
    good = np.eye(3)[:2]
    duplicated = np.stack([np.eye(3)[0], np.eye(3)[0]])
    near_cap = np.stack([np.eye(3)[0], np.eye(3)[0] + 1e-6 * np.eye(3)[1]])  # cond ~ 4e12
    with pytest.raises(IllConditionedError, match="exceeds cap") as info:
        stacked_sinr(np.stack([good, near_cap, duplicated]), 1.0, 0.01)
    assert info.value.index == 1
    with pytest.raises(IllConditionedError) as info:
        stacked_sinr(np.stack([good, good, duplicated, near_cap]), 1.0, 0.01)
    assert info.value.index == 2


def test_stacked_not_positive_definite_found_past_an_uncapped_condition():
    # the rounded Gram matrix [[2, 2 + 2^-26], [2 + 2^-26, 2 + 2^-25]] has
    # determinant -2^-52: its condition number is finite, so with no cap only
    # the Cholesky check stops it
    good = np.eye(2)
    rounded = np.array([[1.0, 1.0], [1.0, 1.0 + 2.0**-26]])
    gram = rounded @ rounded.T
    assert np.isfinite(np.linalg.cond(gram.astype(np.complex128)))
    with pytest.raises(IllConditionedError, match="not positive definite") as info:
        stacked_sinr(np.stack([good, good, rounded, good]), 1.0, 0.01, cond_cap=np.inf)
    assert info.value.index == 2
    with pytest.raises(IllConditionedError, match="not positive definite"):
        zf_combiner(rounded, cond_cap=np.inf)


def test_infinite_condition_number_fails_any_cap():
    duplicated = np.array([[1.0, 0.0], [1.0, 0.0]])  # exactly singular Gram matrix
    with pytest.raises(IllConditionedError, match="exceeds cap") as info:
        stacked_sinr(np.stack([np.eye(2), duplicated]), 1.0, 0.01, cond_cap=np.inf)
    assert info.value.index == 1
    with pytest.raises(IllConditionedError, match="exceeds cap"):
        zf_combiner(duplicated, cond_cap=np.inf)


def test_stacked_validates_inputs():
    with pytest.raises(ValueError):
        stacked_sinr(np.eye(3), 1.0, 0.01)  # a single (K, M) schedule, not a stack
    with pytest.raises(ValueError):
        stacked_sinr(np.zeros((0, 2, 3)), 1.0, 0.01)
    with pytest.raises(ValueError):
        stacked_sinr(np.eye(3)[None], 0.0, 0.01)
    with pytest.raises(ValueError):
        stacked_sinr(np.eye(3)[None], 1.0, -1.0)
    with pytest.raises(IllConditionedError, match="K > M"):
        stacked_sinr(np.ones((2, 3, 2)), 1.0, 0.01)
