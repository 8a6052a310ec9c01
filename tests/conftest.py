# mimoshare first: it defaults OPENBLAS_NUM_THREADS to 1, which only takes
# effect if numpy has not been imported yet
import mimoshare  # noqa: F401

import numpy as np
import pytest

from mimoshare.csi import (
    CsiDataset,
    CsiRecord,
    Layer,
    ScenarioConfig,
    generate_synthetic,
    normalize_to_snr,
    subsample_pool,
)


def pool_from_vectors(vectors, layers=None, snr_db=20.0):
    """Build a normalized dataset from raw channel vectors (index i = record id i)."""
    vectors = [np.asarray(v, dtype=np.complex128) for v in vectors]
    if layers is None:
        layers = [Layer.TERRESTRIAL] * len(vectors)
    records = tuple(
        CsiRecord(index=i, layer=layer, timestep_ms=i, channel=v)
        for i, (v, layer) in enumerate(zip(vectors, layers))
    )
    dataset = CsiDataset(records=records, m_antennas=vectors[0].shape[0])
    return normalize_to_snr(dataset, snr_db)


def random_unit_channels(rng, k, m):
    """K unit-norm complex Gaussian channel rows."""
    h = (rng.standard_normal((k, m)) + 1j * rng.standard_normal((k, m))) / np.sqrt(2)
    return h / np.linalg.norm(h, axis=1, keepdims=True)


@pytest.fixture(scope="session")
def default_dataset():
    """The whole default scenario, normalized to 20 dB: generated once per session."""
    return normalize_to_snr(generate_synthetic(ScenarioConfig()), 20.0)


@pytest.fixture(scope="session")
def default_pool(default_dataset):
    """The default scenario at 20 dB, thinned to the 36/28 candidate pool."""
    return subsample_pool(default_dataset, (36, 28))


@pytest.fixture(scope="session")
def mini_pool():
    """Small two-layer synthetic pool for fast structural tests."""
    config = ScenarioConfig(
        trajectory_length_m=4.0, trajectory_speed_mps=1.0, sample_interval_ms=100.0, seed=3
    )
    dataset = normalize_to_snr(generate_synthetic(config), 20.0)
    return subsample_pool(dataset, (12, 12))
