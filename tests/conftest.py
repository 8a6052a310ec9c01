# mimoshare first: it defaults OPENBLAS_NUM_THREADS to 1, which only takes
# effect if numpy has not been imported yet
import mimoshare  # noqa: F401

import contextlib
import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import strategies as st

from mimoshare import sched
from mimoshare.csi import (
    CsiDataset,
    CsiRecord,
    Layer,
    ScenarioConfig,
    _along_pass,
    generate_synthetic,
    normalize_to_snr,
    subsample_pool,
)
from mimoshare.zfmetrics import evaluate_selection


def pool_from_vectors(vectors, layers=None, snr_db=20.0, ids=None):
    """A normalized dataset of raw channel vectors; row i has record id ``ids[i]``, or i."""
    vectors = [np.asarray(v, dtype=np.complex128) for v in vectors]
    if layers is None:
        layers = [Layer.TERRESTRIAL] * len(vectors)
    if ids is None:
        ids = range(len(vectors))
    records = tuple(
        CsiRecord(index=int(record_id), layer=layer, timestep_ms=i, channel=v)
        for i, (v, layer, record_id) in enumerate(zip(vectors, layers, ids))
    )
    dataset = CsiDataset(records=records, m_antennas=vectors[0].shape[0])
    return normalize_to_snr(dataset, snr_db)


def layer_counts_of(pool, ids):
    """Records per layer among the given record ids: the layer codes of their rows, counted."""
    row_of = dict(zip(pool.ids.tolist(), range(len(pool))))
    codes = pool.layer_codes[[row_of[record_id] for record_id in ids]]
    return dict(zip(Layer, np.bincount(codes, minlength=len(Layer)).tolist()))


def trajectory_points(config, altitude_m):
    """(N, 3) sampling positions along one constant-altitude pass: the generator's geometry."""
    n = config.samples_per_layer
    pts = np.empty((n, 3))
    pts[:, 0] = _along_pass(config, 0, n)
    pts[:, 1] = config.standoff_distance_m
    pts[:, 2] = altitude_m
    return pts


def random_unit_channels(rng, k, m):
    """K unit-norm complex Gaussian channel rows."""
    h = (rng.standard_normal((k, m)) + 1j * rng.standard_normal((k, m))) / np.sqrt(2)
    return h / np.linalg.norm(h, axis=1, keepdims=True)


def assert_row_is(pool, row, selection):
    """The sweep row holds the schedule's layer counts and fallback rank, and exactly its SE."""
    counts = selection.per_layer_counts
    assert (row.k_ground, row.k_aerial) == (counts[Layer.TERRESTRIAL], counts[Layer.AERIAL])
    assert row.fallback_rank == selection.fallback_used_from
    assert row.sum_se == evaluate_selection(pool, selection).sum_se


def method_lines(path):
    """The ``method=`` lines of a summary.txt: its peaks and capacities."""
    return [line for line in path.read_text().splitlines() if line.startswith("method=")]


# values that are no integer count or id: floats (integral ones too), a str and bools
NOT_INTEGERS = [1.7, 1.0, "1", True, np.float64(1.0), np.bool_(True)]


def not_an_integer(name, value):
    """The pattern of the whole TypeError that names ``value`` as no integer ``name``."""
    return rf"^{re.escape(name)} {re.escape(repr(value))} is not an integer$"


# the whole message of a range whose largest schedule holds {0} users, past M = {1}
K_PAST_M = r"^{0} users in one schedule, more than {1} antennas can null \(K > M\)$"


def unscheduled():
    """A context in which a sweep that schedules any row fails with AssertionError."""
    stack = contextlib.ExitStack()
    for name in ("_random_rows", "_prefix_schedules", "_layered_schedules"):
        stack.enter_context(mock.patch.object(sched, name, side_effect=AssertionError("scheduled")))
    return stack


# every text reader's fuzz test bounds its examples by this
FUZZ_EXAMPLES = 150
# a value of at most 7 characters: digits, signs, exponents, range and list
# marks, the letters of nan and inf, and the comment and key marks
VALUE_TEXT = st.text("0123456789-+.:,eEinfa #=\t ", max_size=7)
# str.splitlines breaks at each of these, but the readers end a line only at
# the first three: the others are characters of the line that holds them
_LINE_BREAKS = st.sampled_from(["\n", "\r\n", "\r", "\x0c", "\u2028"])


@st.composite
def text_file_bytes(draw, good_line, header=None):
    """Bytes of a line-based text file, for a reader that accepts ``good_line``.

    A quarter of the files are arbitrary bytes. The rest are up to 6 lines,
    three in four drawn by ``good_line`` and the others any text, often
    below ``header``; a quarter of them then get a stray byte or two.
    """
    if draw(st.integers(0, 3)) == 0:
        return draw(st.binary(max_size=200))
    junk = st.text(max_size=12) | VALUE_TEXT
    lines = [draw(good_line if draw(st.integers(0, 3)) else junk)
             for _ in range(draw(st.integers(0, 6)))]
    if header is not None and draw(st.booleans()):
        lines.insert(0, header)
    data = draw(_LINE_BREAKS).join(lines).encode("utf-8")
    if draw(st.integers(0, 3)) == 0:
        at = draw(st.integers(0, len(data)))
        data = data[:at] + draw(st.binary(min_size=1, max_size=2)) + data[at:]
    return data


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
