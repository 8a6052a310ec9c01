"""The columnar CsiDataset against the per-record path it replaced.

The fingerprints below were recorded with the per-record implementation (one
frozen CsiRecord per timestep); the array-built datasets must reproduce them.
The per-record thinning and fingerprint loops are kept here as oracles.
"""

import dataclasses
import hashlib
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from mimoshare.cli import main
from mimoshare.csi import (
    CsiDataset,
    CsiRecord,
    FixedPointFormat,
    Layer,
    PoolPolicy,
    ScenarioConfig,
    encode_csi_binary,
    generate_synthetic,
    load_capture,
    load_csi_binary,
    merge_datasets,
    normalize_to_snr,
    subsample_pool,
)

HYPOTHESIS = settings(derandomize=True, deadline=None, max_examples=60)
MINI_FLAGS = ["--trajectory-length-m", "4", "--trajectory-speed-mps", "1",
              "--sample-interval-ms", "100", "--seed", "3"]


def literal_fingerprint(dataset):
    digest = hashlib.sha256()
    digest.update(f"M={dataset.m_antennas};".encode())
    for r in dataset.records:
        digest.update(f"{r.index},{r.layer.value},{r.timestep_ms};".encode())
        digest.update(r.channel.tobytes())
    return digest.hexdigest()[:16]


def literal_subsample_ids(dataset, per_layer_count, policy, seed):
    """Record ids the per-record subsample_pool kept."""
    rng = np.random.default_rng(seed)
    keep = []
    for layer, count in zip((Layer.TERRESTRIAL, Layer.AERIAL), per_layer_count):
        positions = [p for p, r in enumerate(dataset.records) if r.layer is layer]
        if count is None:
            keep.extend(positions)
            continue
        population = len(positions)
        if policy is PoolPolicy.STRIDE:
            ranks = np.floor(np.arange(count) * population / count).astype(int) if count else []
        else:
            ranks = sorted(rng.choice(population, size=count, replace=False)) if count else []
        keep.extend(positions[r] for r in ranks)
    return [dataset.records[p].index for p in sorted(keep)]


def mini_dataset():
    config = ScenarioConfig(
        trajectory_length_m=4.0, trajectory_speed_mps=1.0, sample_interval_ms=100.0, seed=3
    )
    return normalize_to_snr(generate_synthetic(config), 20.0)


def ingested(capture_dir):
    captures = [load_capture(Path(capture_dir) / f"{layer.value}.bin") for layer in Layer]
    return normalize_to_snr(merge_datasets(captures), 20.0)


def shuffled_ids_dataset():
    """Records whose ids are neither positions nor sorted."""
    rng = np.random.default_rng(11)
    ids = [40, 7, 23, 1, 99, 5]
    return CsiDataset(
        records=[
            CsiRecord(i, Layer.AERIAL if i % 2 else Layer.TERRESTRIAL, 3 * pos,
                      rng.standard_normal(4) + 1j * rng.standard_normal(4))
            for pos, i in enumerate(ids)
        ],
        m_antennas=4,
    )


# ---------------------------------------------------------------------------
# fingerprints pinned from the per-record implementation
# ---------------------------------------------------------------------------

def test_default_scenario_fingerprint_is_pinned(default_dataset):
    assert len(default_dataset) == 56_642
    assert default_dataset.fingerprint() == "33108585713da58b"


def test_pool_fingerprints_are_pinned(default_pool, mini_pool):
    assert default_pool.fingerprint() == "29b278189045c8f6"
    assert mini_pool.fingerprint() == "7fbe176b35e04e3a"


def test_generated_capture_ingest_fingerprint_is_pinned(tmp_path):
    assert main(["generate", "--out", str(tmp_path), *MINI_FLAGS]) == 0
    assert '"dataset_fingerprint": "0d007f8de3166bc1"' in (tmp_path / "meta.json").read_text()
    dataset = ingested(tmp_path)
    assert len(dataset) == 82
    assert dataset.fingerprint() == "9f88a10dd5d05ce5"


# ---------------------------------------------------------------------------
# array-built datasets equal their rebuild from records
# ---------------------------------------------------------------------------

BUILDERS = {
    "generated": mini_dataset,
    "pool": lambda: subsample_pool(mini_dataset(), (12, 12), PoolPolicy.SEEDED_UNIFORM, seed=2),
    "merged": lambda: merge_datasets([subsample_pool(mini_dataset(), (3, 0)), mini_dataset()]),
    "shuffled_ids": shuffled_ids_dataset,
}


@pytest.fixture(params=[*BUILDERS, "ingested"])
def dataset(request, tmp_path):
    if request.param == "ingested":
        assert main(["generate", "--out", str(tmp_path), *MINI_FLAGS]) == 0
        return ingested(tmp_path)
    return BUILDERS[request.param]()


def test_rebuild_from_records_equals_array_built(dataset):
    rebuilt = CsiDataset(
        records=dataset.records,
        m_antennas=dataset.m_antennas,
        scale_applied=dataset.scale_applied,
        noise_power=dataset.noise_power,
        snr_target_db=dataset.snr_target_db,
    )
    for name in ("channels", "ids", "layer_codes", "timesteps_ms"):
        assert np.array_equal(getattr(rebuilt, name), getattr(dataset, name)), name
    assert rebuilt.fingerprint() == dataset.fingerprint() == literal_fingerprint(dataset)
    assert rebuilt.layer_counts() == dataset.layer_counts()
    for layer in Layer:
        ids = [r.index for r in dataset.records if r.layer is layer]
        assert dataset.ids[dataset.layer_codes == layer.code].tolist() == ids


def test_returned_arrays_are_read_only(dataset):
    picked = dataset.ids[::-2].tolist()
    returned = [
        dataset.channels, dataset.ids, dataset.layer_codes, dataset.timesteps_ms,
        dataset.channels_for(picked), dataset.records[0].channel,
    ]
    for array in returned:
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 0
    with pytest.raises(dataclasses.FrozenInstanceError):
        dataset.noise_power = 1.0


def test_lookup_by_id_follows_the_requested_order():
    dataset = shuffled_ids_dataset()
    wanted = [5, 40, 99]
    by_record = np.array([r.channel for i in wanted for r in dataset.records if r.index == i])
    assert np.array_equal(dataset.channels_for(wanted), by_record)
    # ids 1, 5, 7, 23, 40, 99: the first unknown one, below, between or above them
    for ids, first_unknown in (([5, 1000], 1000), ([0, 5], 0), ([5, 6, 1000], 6),
                               ([40, 41, 39], 41), ([-1], -1)):
        with pytest.raises(KeyError, match=f"^{first_unknown}$"):
            dataset.channels_for(ids)


def test_an_empty_dataset_names_the_first_unknown_id():
    empty = CsiDataset(records=(), m_antennas=2)
    with pytest.raises(KeyError, match="^0$"):
        empty.channels_for([0])
    with pytest.raises(KeyError, match="^3$"):
        empty.channels_for([3, 4])
    assert empty.channels_for([]).shape == (0, 2)


@pytest.mark.parametrize("bad", [np.nan, np.inf, 1j * np.inf])
def test_array_built_dataset_rejects_nonfinite_gains(bad):
    channels = np.ones((3, 4), dtype=np.complex128)
    channels[2, 1] = bad
    with pytest.raises(ValueError, match="NaN or Inf"):
        CsiDataset._of(4, channels, np.arange(3), np.zeros(3, np.int8), np.arange(3))


def test_array_built_dataset_rejects_duplicate_ids():
    with pytest.raises(ValueError, match="duplicate record index 7"):
        CsiDataset._of(2, np.ones((3, 2), np.complex128), np.array([7, 3, 7]),
                       np.zeros(3, np.int8), np.arange(3))


# ---------------------------------------------------------------------------
# pool thinning against the per-record selection
# ---------------------------------------------------------------------------

@st.composite
def layered_datasets(draw):
    is_aerial = draw(st.lists(st.booleans(), min_size=1, max_size=40))
    ids = np.random.default_rng(draw(st.integers(0, 2**16))).permutation(3 * len(is_aerial))
    return CsiDataset(
        records=[
            CsiRecord(int(i), Layer.AERIAL if aerial else Layer.TERRESTRIAL, t, np.ones(2))
            for t, (i, aerial) in enumerate(zip(ids, is_aerial))
        ],
        m_antennas=2,
    )


@HYPOTHESIS
@given(dataset=layered_datasets(), policy=st.sampled_from(list(PoolPolicy)),
       seed=st.integers(0, 2**16), data=st.data())
def test_subsample_keeps_the_per_record_selection(dataset, policy, seed, data):
    counts = dataset.layer_counts()
    per_layer = tuple(
        data.draw(st.one_of(st.none(), st.integers(0, counts[layer])))
        for layer in (Layer.TERRESTRIAL, Layer.AERIAL)
    )
    pool = subsample_pool(dataset, per_layer, policy, seed=seed)
    assert pool.ids.tolist() == literal_subsample_ids(dataset, per_layer, policy, seed)
    assert [r.index for r in pool.records] == pool.ids.tolist()


# ---------------------------------------------------------------------------
# Q1.15 encode / decode
# ---------------------------------------------------------------------------

@st.composite
def q115_gains(draw):
    """(N, M) complex gains whose I and Q both lie on the Q1.15 grid."""
    shape = (draw(st.integers(1, 6)), draw(st.integers(1, 8)), 2)
    codes = draw(arrays(np.int64, shape, elements=st.integers(-32768, 32767)))
    return (codes[..., 0] + 1j * codes[..., 1]) / 32768.0


def dataset_of(gains):
    return CsiDataset(
        records=[CsiRecord(i, Layer.TERRESTRIAL, i, row) for i, row in enumerate(gains)],
        m_antennas=gains.shape[1],
    )


@HYPOTHESIS
@given(gains=q115_gains(), little=st.booleans())
def test_q115_grid_gains_round_trip_exactly(gains, little):
    fmt = FixedPointFormat(m_antennas=gains.shape[1], little_endian=little)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "cap.bin"
        path.write_bytes(encode_csi_binary(dataset_of(gains), fmt))
        back = load_csi_binary(path, fmt)
    assert np.array_equal(back.channels, gains)
    assert back.ids.tolist() == list(range(len(gains)))


@HYPOTHESIS
@given(gains=q115_gains(), excess=st.floats(1.0, 4.0), data=st.data())
def test_q115_full_scale_components_are_rejected(gains, excess, data):
    row = data.draw(st.integers(0, gains.shape[0] - 1))
    col = data.draw(st.integers(0, gains.shape[1] - 1))
    gains = gains.copy()
    gains[row, col] = excess * (1j if data.draw(st.booleans()) else 1.0)
    for little in (True, False):
        fmt = FixedPointFormat(m_antennas=gains.shape[1], little_endian=little)
        with pytest.raises(ValueError, match="fixed-point range"):
            encode_csi_binary(dataset_of(gains), fmt)
