import numpy as np
import pytest

from conftest import NOT_INTEGERS, not_an_integer, pool_from_vectors, random_unit_channels
from sus_reference import correlation, orthogonal_residual
from mimoshare.csi import Layer
from mimoshare.sched import (
    SelectionError,
    SelectionMethod,
    SelectionResult,
    SusParams,
    _SusRun,
    random_select,
    sus_select,
    sus_select_layered,
)


# ---------------------------------------------------------------------------
# random selection
# ---------------------------------------------------------------------------

def test_random_full_pool_draw():
    pool = pool_from_vectors(np.eye(5))
    result = random_select(pool, 5, seed=1)
    assert sorted(result.chosen) == [0, 1, 2, 3, 4]
    assert result.method is SelectionMethod.RANDOM


def test_random_is_deterministic_per_seed():
    rng = np.random.default_rng(0)
    pool = pool_from_vectors(random_unit_channels(rng, 12, 4))
    assert random_select(pool, 6, seed=9).chosen == random_select(pool, 6, seed=9).chosen
    assert random_select(pool, 6, seed=9).chosen != random_select(pool, 6, seed=10).chosen


def test_random_rejects_bad_k():
    pool = pool_from_vectors(np.eye(3))
    with pytest.raises(ValueError):
        random_select(pool, 0, seed=1)
    with pytest.raises(ValueError):
        random_select(pool, 4, seed=1)


# ---------------------------------------------------------------------------
# residual and correlation primitives
# ---------------------------------------------------------------------------

def test_residual_empty_basis_is_identity():
    h = np.array([1.0, 2.0, 3.0j])
    assert np.array_equal(orthogonal_residual(h, []), h)


def test_residual_one_step_gram_schmidt():
    g = orthogonal_residual(np.array([1.0, 1.0, 0.0]), [np.array([1.0, 0.0, 0.0])])
    assert np.allclose(g, [0.0, 1.0, 0.0], atol=1e-15)


def test_residual_of_spanned_vector_vanishes():
    rng = np.random.default_rng(3)
    b1 = rng.standard_normal(6) + 1j * rng.standard_normal(6)
    b2 = orthogonal_residual(rng.standard_normal(6) + 1j * rng.standard_normal(6), [b1])
    h = 0.3 * b1 - 1.7j * b2
    assert np.linalg.norm(orthogonal_residual(h, [b1, b2])) < 1e-10


def test_residual_rejects_zero_basis_vector():
    with pytest.raises(ValueError):
        orthogonal_residual(np.ones(3), [np.zeros(3)])


def test_correlation_basic_values():
    h = np.array([2.0, 0.0])
    assert correlation(h, h) == pytest.approx(1.0, abs=1e-15)
    assert correlation(h, np.array([0.0, 1.0])) == pytest.approx(0.0, abs=1e-15)
    # 1.9*2 / (2 * sqrt(3.62)) hand-computed
    assert correlation(h, np.array([1.9, 0.1])) == pytest.approx(0.99862, abs=1e-4)


def test_correlation_symmetric_and_scale_invariant():
    rng = np.random.default_rng(5)
    h = rng.standard_normal(7) + 1j * rng.standard_normal(7)
    g = rng.standard_normal(7) + 1j * rng.standard_normal(7)
    assert correlation(h, g) == pytest.approx(correlation(g, h), rel=1e-12)
    assert correlation(3.5 * h, 0.2 * g) == pytest.approx(correlation(h, g), rel=1e-12)


def test_correlation_rejects_zero_vector():
    with pytest.raises(ValueError):
        correlation(np.zeros(3), np.ones(3))


# ---------------------------------------------------------------------------
# semi-orthogonal selection
# ---------------------------------------------------------------------------

def test_sus_orthogonal_pool_selected_in_descending_norm_order():
    vectors = [3.0 * np.eye(4)[1], 1.0 * np.eye(4)[3], 2.0 * np.eye(4)[0], 4.0 * np.eye(4)[2]]
    pool = pool_from_vectors(vectors)
    result = sus_select(pool, 4)
    assert result.chosen == (3, 0, 2, 1)  # norms 4, 3, 2, 1
    assert result.fallback_used_from is None


def test_sus_prunes_correlated_candidate():
    pool = pool_from_vectors([[2.0, 0.0], [1.9, 0.1], [0.0, 1.0]])
    result = sus_select(pool, 2, SusParams(alpha=0.5))
    assert result.chosen == (0, 2)  # candidate 1 dropped, correlation 0.99862 >= 0.5


def test_sus_first_pick_is_global_max_norm():
    rng = np.random.default_rng(12)
    for trial in range(10):
        h = rng.standard_normal((15, 6)) + 1j * rng.standard_normal((15, 6))
        pool = pool_from_vectors(h)
        result = sus_select(pool, 1)
        norms = np.linalg.norm(pool.channels, axis=1)
        assert result.chosen[0] == int(np.argmax(norms))


def test_sus_trace_replay_respects_alpha():
    rng = np.random.default_rng(21)
    pool = pool_from_vectors(random_unit_channels(rng, 30, 8))
    params = SusParams(alpha=0.5)
    result = sus_select(pool, 10, params)
    channels = pool.channels_for(result.chosen)
    cutoff = len(result) if result.fallback_used_from is None else result.fallback_used_from
    basis = []
    for rank, h in enumerate(channels):
        if rank < cutoff:
            for g in basis:
                assert correlation(h, g) < params.alpha + 1e-12
        basis.append(orthogonal_residual(h, basis))


def test_sus_selection_order_is_scale_invariant():
    from mimoshare.csi import CsiDataset, CsiRecord

    def raw_pool(vectors):
        records = tuple(
            CsiRecord(index=i, layer=Layer.TERRESTRIAL, timestep_ms=i, channel=v)
            for i, v in enumerate(vectors)
        )
        return CsiDataset(records=records, m_antennas=vectors.shape[1])

    rng = np.random.default_rng(8)
    vectors = random_unit_channels(rng, 20, 5) * rng.uniform(0.5, 2.0, size=(20, 1))
    a = sus_select(raw_pool(vectors), 8)
    # power-of-two factors scale every float exactly, so even near-ties agree
    for factor in (0.125, 8.0):
        b = sus_select(raw_pool(vectors * factor), 8)
        assert b.chosen == a.chosen
        assert b.fallback_used_from == a.fallback_used_from


def test_sus_deterministic():
    rng = np.random.default_rng(17)
    pool = pool_from_vectors(random_unit_channels(rng, 16, 4))
    assert sus_select(pool, 6) == sus_select(pool, 6)


def test_sus_fallback_engages_and_is_recorded():
    # one dominant direction: everything else pruned after the first pick
    rng = np.random.default_rng(30)
    base = np.zeros(8, dtype=complex)
    base[0] = 1.0
    vectors = [base * (1.0 + 0.01 * i) + 1e-3 * rng.standard_normal(8) for i in range(6)]
    pool = pool_from_vectors(vectors)
    result = sus_select(pool, 4, SusParams(alpha=0.5))
    assert len(result) == 4
    assert result.fallback_used_from == 1


def test_sus_rejects_bad_k():
    pool = pool_from_vectors(np.eye(3))
    with pytest.raises(ValueError):
        sus_select(pool, 0)
    with pytest.raises(ValueError):
        sus_select(pool, 4)


@pytest.mark.parametrize("value", NOT_INTEGERS, ids=repr)
def test_random_select_rejects_a_k_that_is_not_an_integer(value):
    with pytest.raises(TypeError, match=not_an_integer("k", value)):
        random_select(pool_from_vectors(np.eye(3)), value, seed=1)


@pytest.mark.parametrize("value", NOT_INTEGERS, ids=repr)
def test_sus_select_rejects_a_k_that_is_not_an_integer(value):
    with pytest.raises(TypeError, match=not_an_integer("k", value)):
        sus_select(pool_from_vectors(np.eye(3)), value)


# ---------------------------------------------------------------------------
# layered quota variant
# ---------------------------------------------------------------------------

def two_layer_pool():
    # three strong mutually orthogonal terrestrial users, one weaker aerial
    vectors = [3.0 * np.eye(4)[0], 2.5 * np.eye(4)[1], 2.0 * np.eye(4)[2], 1.0 * np.eye(4)[3]]
    layers = [Layer.TERRESTRIAL] * 3 + [Layer.AERIAL]
    return pool_from_vectors(vectors, layers)


def test_layered_degenerate_quota_all_aerial():
    rng = np.random.default_rng(2)
    layers = [Layer.TERRESTRIAL] * 5 + [Layer.AERIAL] * 5
    pool = pool_from_vectors(random_unit_channels(rng, 10, 4), layers)
    result = sus_select_layered(pool, {Layer.TERRESTRIAL: 0, Layer.AERIAL: 3})
    assert result.per_layer_counts == {Layer.TERRESTRIAL: 0, Layer.AERIAL: 3}
    assert all(pool.records[i].layer is Layer.AERIAL for i in result.chosen)  # id i is row i


def test_layered_quota_binds_third_pick():
    pool = two_layer_pool()
    unconstrained = sus_select(pool, 3)
    assert unconstrained.chosen == (0, 1, 2)  # greedy takes the three strong terrestrials
    result = sus_select_layered(pool, {Layer.TERRESTRIAL: 2, Layer.AERIAL: 1})
    assert result.chosen == (0, 1, 3)  # cap forces the aerial user in
    assert result.per_layer_counts == {Layer.TERRESTRIAL: 2, Layer.AERIAL: 1}
    assert result.method is SelectionMethod.SUS_LAYERED


def test_layered_prefix_counts_never_exceed_quota():
    rng = np.random.default_rng(77)
    layers = [Layer.TERRESTRIAL] * 12 + [Layer.AERIAL] * 12
    pool = pool_from_vectors(random_unit_channels(rng, 24, 8), layers)
    quota = {Layer.TERRESTRIAL: 5, Layer.AERIAL: 7}
    result = sus_select_layered(pool, quota, SusParams(alpha=0.4))
    running = {Layer.TERRESTRIAL: 0, Layer.AERIAL: 0}
    for rec_id in result.chosen:
        running[pool.records[rec_id].layer] += 1  # id i is row i
        assert running[Layer.TERRESTRIAL] <= quota[Layer.TERRESTRIAL]
        assert running[Layer.AERIAL] <= quota[Layer.AERIAL]
    assert result.per_layer_counts == quota


def test_layered_rejects_quota_beyond_population():
    pool = two_layer_pool()
    with pytest.raises(SelectionError):
        sus_select_layered(pool, {Layer.TERRESTRIAL: 4, Layer.AERIAL: 0})
    with pytest.raises(ValueError):
        sus_select_layered(pool, {Layer.TERRESTRIAL: 0, Layer.AERIAL: 0})


def test_layered_rejects_a_negative_quota():
    with pytest.raises(ValueError, match="quotas must be nonnegative"):
        sus_select_layered(two_layer_pool(), {Layer.TERRESTRIAL: -1, Layer.AERIAL: 2})


@pytest.mark.parametrize("value", NOT_INTEGERS, ids=repr)
@pytest.mark.parametrize("layer", Layer, ids=lambda layer: layer.value)
def test_layered_rejects_a_quota_that_is_not_an_integer(layer, value):
    quota = {Layer.TERRESTRIAL: 1, Layer.AERIAL: 1, layer: value}
    with pytest.raises(TypeError, match=not_an_integer(f"{layer.value} quota", value)):
        sus_select_layered(two_layer_pool(), quota)


@pytest.mark.parametrize("key", ["aerial", Layer.AERIAL.code, None])
def test_layered_rejects_a_quota_key_that_is_not_a_layer(key):
    # a quota under any other key would count no user of its layer
    with pytest.raises(TypeError, match=rf"^quota key {key!r} is not a Layer$"):
        sus_select_layered(two_layer_pool(), {Layer.TERRESTRIAL: 2, key: 1})


def test_a_step_with_no_open_record_raises_and_picks_nothing():
    # no public call reaches this guard: sus_select and sus_select_layered
    # bound k and every quota by the populations before a run starts
    pool = two_layer_pool()
    run = _SusRun(pool, SusParams())
    for _ in range(len(pool)):
        run.step()
    with pytest.raises(SelectionError, match="pool exhausted before the requested schedule size"):
        run.step()
    # a step open to one layer only, once that layer's one record is picked
    run = _SusRun(pool, SusParams())
    run.step(Layer.AERIAL.code)
    with pytest.raises(SelectionError, match="pool exhausted"):
        run.step(Layer.AERIAL.code)
    assert run.rows == [3] and run.counts == [0, 1]  # counts by layer code


def test_layered_published_peak_quota_shape(default_pool):
    # the 34 + 24 split on the 36/28 candidate pool
    result = sus_select_layered(default_pool, {Layer.TERRESTRIAL: 34, Layer.AERIAL: 24})
    assert result.per_layer_counts == {Layer.TERRESTRIAL: 34, Layer.AERIAL: 24}
    assert len(result) == 58


def test_selection_result_invariants():
    with pytest.raises(ValueError):
        SelectionResult((1, 1), {Layer.TERRESTRIAL: 2, Layer.AERIAL: 0}, SelectionMethod.SUS)
    with pytest.raises(ValueError):
        SelectionResult((1, 2), {Layer.TERRESTRIAL: 1, Layer.AERIAL: 0}, SelectionMethod.SUS)


def test_sus_params_validation():
    with pytest.raises(ValueError):
        SusParams(alpha=0.0)
    with pytest.raises(ValueError):
        SusParams(alpha=1.2)
