"""The row-blocked pool build against the whole-array code it replaced.

``literal_generate_synthetic`` is the whole-array generator, kept here
unchanged as the oracle: the blocked generator must reproduce its bits for
every block size, and so must the blocked capture decoder those of one
whole-file decode. The streamed pool build keeps only the pool's rows of each
generated or decoded block and scales them by the whole dataset's factor; it
must give exactly ``subsample_pool(normalize_to_snr(dataset, snr), ...)``.
"""

import contextlib
import dataclasses
import errno
import hashlib
import json
import math
import os
import subprocess
import sys
import tempfile
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from conftest import trajectory_points
import mimoshare
from mimoshare import cli, csi
from mimoshare.csi import (
    CsiDataset,
    FixedPointFormat,
    Layer,
    PoolPolicy,
    ScenarioConfig,
    element_positions,
    encode_csi_binary,
    generate_synthetic,
    load_capture,
    load_csi_binary,
    merge_datasets,
    normalize_to_snr,
    read_sidecar,
    subsample_pool,
)

HYPOTHESIS = settings(derandomize=True, deadline=None, max_examples=40)
MINI_FLAGS = ["--trajectory-length-m", "4", "--trajectory-speed-mps", "1",
              "--sample-interval-ms", "100", "--seed", "3"]

# sha256 of sweep.csv from the full default `sweep-total` and `sweep-grid`,
# recorded with the whole-array generator and normalization
DEFAULT_TOTAL_SHA256 = "46ca5196772a43e568afc3262dc7932fdb7d2da06a806ac599b3df2ba2bb6afa"
DEFAULT_GRID_SHA256 = "f9ae4ff3d6132bd3d53cda969c102f3a9162a556e10e03e089a9410e04b551eb"

# interpreter and numpy (~32 MB), the pool and one block's temporaries, and
# margin (38.1 MB measured); the 58 MB (N, M) channel matrix exceeds it, and so
# would one layer's 14.5 MB of real draws held beside the rest, so a sweep must
# never hold the whole dataset or a layer's draws, generated or decoded
SWEEP_PEAK_RSS_BUDGET_MB = 50
# a generated pool costs only one block's temporaries beyond the same pool
# decoded from captures: 0.3 MB measured, where holding 8 MiB of a layer's
# real draws gave 9.5 MB and holding all of them 15.2 MB
GENERATED_OVER_DECODED_MB = 2
# interpreter and numpy, the (N,) energies and columns of two passes over the
# captures, and margin (37.0 MB measured); the 58 MB matrix the captures decode
# into exceeds it, so ingest must hash the scaled blocks as it reads them
INGEST_PEAK_RSS_BUDGET_MB = 50
# interpreter and numpy, the 58 MB normalized matrix, one block's
# temporaries, and margin (97.0 MB measured); both layers' 7.2 MB encodings
# held as bytes (118.5 MB measured) exceed it, as does a float64 copy of a
# layer (29 MB), so generate must write each binary as it encodes its blocks
GENERATE_PEAK_RSS_BUDGET_MB = 105


def literal_generate_synthetic(config: ScenarioConfig) -> CsiDataset:
    """Generate an un-normalized two-layer dataset from the scenario geometry.

    Per sample, the channel is the exact spherical-wave LOS term (free-space
    amplitude, phase -2*pi*d/lambda from the per-element path length) plus a
    diffuse circular-Gaussian term whose power is LOS power / K for the
    layer's Rician K-factor. K of +inf disables the diffuse term. Deterministic
    for a fixed seed.
    """
    rng = np.random.default_rng(config.seed)
    elems = element_positions(config)
    lam = config.wavelength_m

    n = config.samples_per_layer
    channels = np.empty((2 * n, config.m_antennas), dtype=np.complex128)
    layer_plan = zip(
        (Layer.TERRESTRIAL, Layer.AERIAL), config.layer_altitudes_m, config.rician_k_db
    )
    for layer, altitude, k_db in layer_plan:
        rows = slice(layer.code * n, (layer.code + 1) * n)
        pts = trajectory_points(config, altitude)
        # squares summed x, y, z in turn, as np.linalg.norm does, bit for bit,
        # without its (N, M, 3) temporary
        dists = np.zeros((n, config.m_antennas))
        for axis in range(3):
            dists += np.square(pts[:, None, axis] - elems[None, :, axis])
        np.sqrt(dists, out=dists)  # (N, M)
        amps = lam / (4.0 * np.pi * dists)
        gains = np.multiply(amps, np.exp(-2j * np.pi * dists / lam), out=channels[rows])

        k_lin = 10.0 ** (k_db / 10.0)
        diffuse_power = np.mean(amps**2, axis=1) / k_lin  # (N,) ; 0 when K=inf
        noise = rng.standard_normal((pts.shape[0], config.m_antennas)) + 1j * rng.standard_normal(
            (pts.shape[0], config.m_antennas)
        )
        gains += np.sqrt(diffuse_power / 2.0)[:, None] * noise
    steps = np.tile(np.arange(n), 2)
    codes = np.repeat(np.array([layer.code for layer in Layer], dtype=np.int8), n)
    return CsiDataset._of(config.m_antennas, channels, np.arange(2 * n), codes,
                          np.round(steps * config.sample_interval_ms).astype(np.int64))


def literal_mean_sq_norm(gains) -> float:
    return np.mean(np.sum(np.abs(gains) ** 2, axis=1))


def bits(array):
    return np.ascontiguousarray(array).view(np.uint64)


def assert_same_dataset(got, want):
    assert got.m_antennas == want.m_antennas
    np.testing.assert_array_equal(bits(got.channels), bits(want.channels))
    np.testing.assert_array_equal(got.ids, want.ids)
    np.testing.assert_array_equal(got.layer_codes, want.layer_codes)
    np.testing.assert_array_equal(got.timesteps_ms, want.timesteps_ms)
    assert (got.scale_applied, got.noise_power, got.snr_target_db) == (
        want.scale_applied, want.noise_power, want.snr_target_db)
    assert got.fingerprint() == want.fingerprint()


# ---------------------------------------------------------------------------
# the blocked generator and energy factor against the whole-array oracle
# ---------------------------------------------------------------------------

K_DB = st.sampled_from([-3.0, 0.0, 3.0, 20.0, math.inf])


@st.composite
def small_scenarios(draw):
    samples = draw(st.integers(3, 40))
    return ScenarioConfig(
        m_rows=draw(st.integers(1, 4)),
        m_cols=draw(st.integers(1, 4)),
        # up to 100 GHz, for phase arguments ~40x the default's
        carrier_hz=draw(st.floats(1e8, 1e11)),
        element_spacing_wavelengths=draw(st.floats(0.1, 2.0)),
        bs_height_m=draw(st.floats(1.0, 40.0)),
        trajectory_length_m=(samples - 1) * 0.1,
        trajectory_speed_mps=1.0,
        sample_interval_ms=100.0,
        layer_altitudes_m=(draw(st.floats(1.0, 15.0)), draw(st.floats(16.0, 40.0))),
        standoff_distance_m=draw(st.floats(1.0, 60.0)),
        rician_k_db=(draw(K_DB), draw(K_DB)),
        seed=draw(st.integers(0, 2**32 - 1)),
    )


@HYPOTHESIS
@given(config=small_scenarios())
@example(config=ScenarioConfig(m_rows=2, m_cols=3, trajectory_length_m=1.9,
                               trajectory_speed_mps=1.0, sample_interval_ms=100.0,
                               rician_k_db=(math.inf, math.inf), seed=5))
# the terrestrial pass at the middle element row's height: a z-difference of 0
@example(config=ScenarioConfig(m_rows=3, m_cols=2, bs_height_m=8.0, trajectory_length_m=1.9,
                               trajectory_speed_mps=1.0, sample_interval_ms=100.0,
                               layer_altitudes_m=(8.0, 24.0), seed=7))
def test_blocked_generator_reproduces_the_whole_array_oracle(config):
    n = config.samples_per_layer
    want = literal_generate_synthetic(config)
    # one row, a block that does not divide n (n >= 3), and one larger than n
    for block in (1, n - 1, n + 1):
        with mock.patch.object(csi, "_ROW_BLOCK", block):
            assert_same_dataset(generate_synthetic(config), want)


def test_the_replay_rests_on_chunked_and_restored_normal_draws():
    # the generator rests on the first half: it draws a layer's real parts in
    # blocks, spilling each, then each block's imaginary parts, and chunked
    # draws must leave the stream as one whole draw. The second half, a
    # Generator rebuilt from the stream's state continuing it, is what a
    # replay of drawn parts would rest on; the generator restores no state, as
    # it draws each normal once
    whole = np.random.default_rng(11).standard_normal((600, 5))
    for chunk in (1, 7, 256):
        rng = np.random.default_rng(11)
        got = np.empty_like(whole)
        for start in range(0, len(got), chunk):
            rng.standard_normal(out=got[start:start + chunk])
        np.testing.assert_array_equal(
            bits(got), bits(whole),
            err_msg=f"standard_normal(out=) in chunks of {chunk} rows is not one whole draw, "
                    "so the spilled real parts and the imaginary draws leave the stream")
    rng = np.random.default_rng(11)
    rng.standard_normal((200, 5))
    replay = np.random.default_rng(0)
    replay.bit_generator.state = rng.bit_generator.state
    for source in (replay, rng):
        np.testing.assert_array_equal(
            bits(source.standard_normal((400, 5))), bits(whole[200:]),
            err_msg="a Generator rebuilt from bit_generator.state does not continue the "
                    "stream, so a replay of drawn parts would change the bits")


# ---------------------------------------------------------------------------
# the spilled real parts
# ---------------------------------------------------------------------------

# 41 rows a layer at M = 4, in blocks of 8 under SPILL_BLOCK: 6 blocks a layer
SPILL_SCENARIO = ScenarioConfig(m_rows=2, m_cols=2, trajectory_length_m=4.0,
                                trajectory_speed_mps=1.0, sample_interval_ms=100.0, seed=3)
SPILL_BLOCK = 8


class CountingGenerator:
    """A ``Generator`` that counts the normals ``standard_normal`` draws."""

    def __init__(self, rng):
        self.rng, self.normals = rng, 0

    def standard_normal(self, *args, **kwargs):
        drawn = self.rng.standard_normal(*args, **kwargs)
        self.normals += np.size(drawn)
        return drawn

    def __getattr__(self, name):
        return getattr(self.rng, name)


def test_a_generator_pass_draws_each_normal_once():
    made = []
    default_rng = np.random.default_rng

    def counting_rng(*args, **kwargs):
        made.append(CountingGenerator(default_rng(*args, **kwargs)))
        return made[-1]

    n, m = SPILL_SCENARIO.samples_per_layer, SPILL_SCENARIO.m_antennas
    per_layer = math.ceil(n / SPILL_BLOCK)
    with (mock.patch.object(csi, "_ROW_BLOCK", SPILL_BLOCK),
          mock.patch.object(csi.np.random, "default_rng", counting_rng)):
        drawn = [sum(rng.normals for rng in made)
                 for _ in csi._generated_blocks(SPILL_SCENARIO)]
    # a real and an imaginary part a gain, once each: a redraw of the real
    # parts would read 3 * n * M a layer
    assert len(drawn) == 2 * per_layer
    assert (drawn[per_layer - 1], drawn[-1]) == (2 * n * m, 2 * 2 * n * m)


@contextlib.contextmanager
def spill_files(wrap=None):
    """The temporary files the generator opens, as it opens them, each in ``wrap`` if given."""
    opened = []
    temporary_file = tempfile.TemporaryFile

    def recording(*args, **kwargs):
        spill = temporary_file(*args, **kwargs)
        opened.append(wrap(spill) if wrap else spill)
        return opened[-1]

    with mock.patch.object(csi.tempfile, "TemporaryFile", recording):
        yield opened


def test_a_generator_closed_after_its_first_block_closes_its_spill(tmp_path):
    with (mock.patch.object(csi, "_ROW_BLOCK", SPILL_BLOCK),
          mock.patch.object(tempfile, "tempdir", str(tmp_path)), spill_files() as opened):
        blocks = csi._generated_blocks(SPILL_SCENARIO)
        next(blocks)
        assert len(opened) == 1 and not opened[0].closed
        if os.name == "posix":  # the file has no name while it is open
            assert os.listdir(tmp_path) == []
        blocks.close()
        assert opened[0].closed
        for _ in csi._generated_blocks(SPILL_SCENARIO):
            pass
    assert len(opened) == 3 and all(spill.closed for spill in opened)
    assert os.listdir(tmp_path) == []


class LosingTail:
    """A temporary file that loses its last float when it is rewound to be read."""

    def __init__(self, file):
        self.file, self.closed = file, False

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.file.close()
        self.closed = True

    def write(self, data):
        return self.file.write(data)

    def seek(self, offset):
        self.file.truncate(self.file.tell() - 8)
        return self.file.seek(offset)

    def readinto(self, buffer):
        return self.file.readinto(buffer)


def test_a_short_read_from_the_spill_raises():
    n, m = SPILL_SCENARIO.samples_per_layer, SPILL_SCENARIO.m_antennas
    last = (n - 1) // SPILL_BLOCK * SPILL_BLOCK  # the first row of the layer's last block
    last_bytes = (n - last) * m * 8
    with (mock.patch.object(csi, "_ROW_BLOCK", SPILL_BLOCK), spill_files(LosingTail) as opened):
        blocks = csi._generated_blocks(SPILL_SCENARIO)
        for _ in range(last // SPILL_BLOCK):  # the whole blocks before it
            next(blocks)
        message = (f"generator spill file ended early: read {last_bytes - 8} of "
                   f"{last_bytes} bytes of a terrestrial block at row {last}")
        with pytest.raises(OSError, match=f"^{message}$"):
            next(blocks)
    assert opened[0].closed


def test_a_sweep_with_no_temporary_directory_fails_and_writes_nothing(tmp_path, capsys):
    out = tmp_path / "out"
    missing = tmp_path / "missing"
    with mock.patch.object(tempfile, "tempdir", str(missing)):
        assert cli.main(["sweep-total", *MINI_FLAGS, "--k-range", "1:2", "--trials", "1",
                         "--out", str(out)]) == 1
    err = capsys.readouterr().err.splitlines()
    # the line names the directory, and no tmp... file in it, which was never made
    assert err == [f"error: temporary directory {missing} is missing or unwritable: "
                   f"{os.strerror(errno.ENOENT)}"]
    assert not out.exists() and not missing.exists()


COMPONENTS = st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False)


@HYPOTHESIS
@given(
    gains=st.integers(1, 30).flatmap(lambda n: st.integers(1, 6).flatmap(
        lambda m: arrays(np.complex128, (n, m), elements=st.builds(complex, COMPONENTS,
                                                                   COMPONENTS)))),
    block=st.integers(1, 32),
)
def test_blocked_energy_factor_is_the_literal_factor(gains, block):
    dataset = CsiDataset._of(gains.shape[1], gains, np.arange(len(gains)),
                             np.zeros(len(gains), np.int8), np.arange(len(gains)))
    mean_sq_norm = literal_mean_sq_norm(gains)
    with mock.patch.object(csi, "_ROW_BLOCK", block):
        if mean_sq_norm == 0.0:
            with pytest.raises(ValueError, match="all-zero"):
                normalize_to_snr(dataset, 10.0)
            return
        normalized = normalize_to_snr(dataset, 10.0)
    scale = normalized.scale_applied
    assert scale == 1 / np.sqrt(mean_sq_norm)
    np.testing.assert_array_equal(bits(normalized.channels), bits(gains * scale))


def literal_normalize(dataset, snr_db) -> tuple:
    """Whole-array normalization: (channels, scale_applied, noise_power, snr_target_db)."""
    scale = 1.0 / math.sqrt(literal_mean_sq_norm(dataset.channels))
    return (dataset.channels * scale, dataset.scale_applied * scale, 10.0 ** (-snr_db / 10.0),
            snr_db)


@st.composite
def small_datasets(draw):
    """Un-normalized or normalized datasets of 1..12 rows, ids distinct and in any order."""
    n, m = draw(st.integers(1, 12)), draw(st.integers(1, 5))
    gains = draw(arrays(np.complex128, (n, m), elements=st.builds(complex, COMPONENTS,
                                                                 COMPONENTS)))
    ids = draw(st.lists(st.integers(-2**40, 2**40), min_size=n, max_size=n, unique=True))
    codes = draw(arrays(np.int8, n, elements=st.sampled_from([layer.code for layer in Layer])))
    timesteps = draw(arrays(np.int64, n, elements=st.integers(0, 10**9)))
    metadata = draw(st.sampled_from([{}, {"scale_applied": 1.0}]) | st.fixed_dictionaries({
        "scale_applied": st.floats(1e-6, 1e6), "noise_power": st.floats(1e-6, 1e6),
        "snr_target_db": st.floats(-50.0, 50.0)}))
    return CsiDataset._of(m, gains, np.array(ids, dtype=np.int64), codes, timesteps, **metadata)


SNR_DB = st.floats(-50.0, 50.0)


@HYPOTHESIS
@given(dataset=small_datasets(), block=st.integers(1, 5), snr_db=SNR_DB, again_db=SNR_DB)
# 4 rows in blocks of 3, ids out of order
@example(dataset=CsiDataset._of(2, np.array([[1, 2j], [3, 4], [5j, -6], [0, 7]]),
                                np.array([9, 2, 5, 0]), np.array([1, 0, 1, 0], np.int8),
                                np.arange(4)),
         block=3, snr_db=20.0, again_db=-7.5)
def test_normalize_is_the_literal_whole_array_normalization(dataset, block, snr_db, again_db):
    with mock.patch.object(csi, "_ROW_BLOCK", block):
        if literal_mean_sq_norm(dataset.channels) == 0.0:
            with pytest.raises(ValueError, match="^cannot normalize an all-zero dataset$"):
                normalize_to_snr(dataset, snr_db)
            return
        once = normalize_to_snr(dataset, snr_db)
        twice = normalize_to_snr(once, again_db)
    for before, after, db in ((dataset, once, snr_db), (once, twice, again_db)):
        channels, *metadata = literal_normalize(before, db)
        np.testing.assert_array_equal(bits(after.channels), bits(channels))
        assert [after.scale_applied, after.noise_power, after.snr_target_db] == metadata
        for column in ("ids", "layer_codes", "timesteps_ms"):
            np.testing.assert_array_equal(getattr(after, column), getattr(before, column))


def test_default_scenario_matches_the_oracle():
    config = ScenarioConfig(seed=1)
    assert_same_dataset(generate_synthetic(config), literal_generate_synthetic(config))


@HYPOTHESIS
@given(rows=st.integers(1, 12), m=st.integers(1, 5), frac_bits=st.integers(0, 15),
       little_endian=st.booleans(), seed=st.integers(0, 2**32 - 1))
def test_blocked_capture_codec_is_the_whole_file_codec(rows, m, frac_bits, little_endian, seed):
    fmt = FixedPointFormat(m, frac_bits, little_endian)
    raw = np.random.default_rng(seed).integers(-32768, 32768, size=rows * m * 2,
                                               dtype=np.int16).astype(fmt.dtype).tobytes()
    # the whole-file decode: every sample scaled at once, viewed as complex gains
    want = (np.frombuffer(raw, fmt.dtype) / float(1 << frac_bits)).view(np.complex128)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "capture.bin"
        path.write_bytes(raw)
        # one row, a block that does not divide the rows (when there are 3+), one larger
        for block in (1, max(rows - 1, 1), rows + 1):
            with mock.patch.object(csi, "_ROW_BLOCK", block):
                dataset = load_csi_binary(path, fmt)
                assert encode_csi_binary(dataset, fmt) == raw
            np.testing.assert_array_equal(bits(dataset.channels), bits(want.reshape(rows, m)))


# ---------------------------------------------------------------------------
# the streamed pool build against normalize-then-thin
# ---------------------------------------------------------------------------

COUNTS = st.sampled_from([None, 0, 1, "population"])


@HYPOTHESIS
@given(config=small_scenarios(), counts=st.tuples(COUNTS, COUNTS),
       policy=st.sampled_from(PoolPolicy), pool_seed=st.integers(0, 2**32 - 1),
       snr_db=st.floats(-20.0, 40.0))
def test_streamed_pool_is_normalize_then_thin(config, counts, policy, pool_seed, snr_db):
    n = config.samples_per_layer
    per_layer = tuple(n if count == "population" else count for count in counts)
    want = subsample_pool(normalize_to_snr(generate_synthetic(config), snr_db), per_layer,
                          policy, seed=pool_seed)
    # one row, a block that does not divide n (n >= 3), and one larger than n
    for block in (1, n - 1, n + 1):
        with mock.patch.object(csi, "_ROW_BLOCK", block):
            got = csi._streamed_pool(csi._generated_source(config), snr_db, per_layer,
                                     policy, pool_seed)
        assert_same_dataset(got, want)


MINI_SCENARIO = ScenarioConfig(trajectory_length_m=1.9, trajectory_speed_mps=1.0,
                               sample_interval_ms=100.0, seed=5)


def test_streamed_pool_rejects_a_nonfinite_scenario_as_the_whole_build_does():
    # K of -4000 dB is 0 linear, so the terrestrial diffuse power divides by zero;
    # the (0, 1) pool keeps only an aerial row, which the whole-dataset factor
    # then zeroes, and the keep-all pool holds the bad rows themselves
    bad = dataclasses.replace(MINI_SCENARIO, rician_k_db=(-4000.0, 3.0))
    with np.errstate(all="ignore"):
        with pytest.raises(ValueError, match="NaN or Inf") as whole:
            generate_synthetic(bad)
        for counts in ((0, 1), (None, None)):
            with pytest.raises(ValueError) as streamed:
                csi._streamed_pool(csi._generated_source(bad), 20.0, counts)
            assert str(streamed.value) == str(whole.value)


@pytest.fixture(scope="module")
def mini_captures(tmp_path_factory):
    """``MINI_SCENARIO``'s captures as ``generate`` writes them, one binary per layer."""
    out = tmp_path_factory.mktemp("mini_captures")
    assert cli.main(["generate", "--out", str(out), "--trajectory-length-m", "1.9",
                     "--trajectory-speed-mps", "1", "--sample-interval-ms", "100",
                     "--seed", "5"]) == 0
    return [str(out / f"{layer.value}.bin") for layer in Layer]


# source -> (its block generator, its constructor from the mini captures)
SOURCES = {
    "generated": ("_generated_blocks", lambda captures: csi._generated_source(MINI_SCENARIO)),
    "captures": ("_decoded_blocks", lambda captures: csi._capture_source(
        (path, *read_sidecar(f"{path}.cfg")) for path in captures)),
}


@pytest.mark.parametrize("source", sorted(SOURCES))
@pytest.mark.parametrize("policy", PoolPolicy)
@pytest.mark.parametrize("excess", [(1, 0), (0, 1), (-1, 0)])
def test_streamed_pool_checks_its_counts_before_generating(source, policy, excess,
                                                           mini_captures):
    n = MINI_SCENARIO.samples_per_layer
    per_layer = tuple(n + extra if extra >= 0 else extra for extra in excess)
    with pytest.raises(ValueError) as whole:
        subsample_pool(generate_synthetic(MINI_SCENARIO), per_layer, policy)
    blocks, make_source = SOURCES[source]
    # no generated row and no capture byte before the counts pass
    with mock.patch.object(csi, blocks, side_effect=AssertionError("a block was made")):
        with pytest.raises(ValueError) as streamed:
            csi._streamed_pool(make_source(mini_captures), 20.0, per_layer, policy)
    assert str(streamed.value) == str(whole.value)


@pytest.mark.parametrize("source", sorted(SOURCES))
def test_a_source_yields_the_same_blocks_each_time_it_is_read(source, mini_captures):
    m, (ids, _, _), blocks = SOURCES[source][1](mini_captures)
    with mock.patch.object(csi, "_ROW_BLOCK", 7):  # several blocks per layer
        first, second = list(blocks()), list(blocks())
    assert sum(map(len, first)) == len(ids)
    assert len(first) == len(second)
    for a, b in zip(first, second):
        assert a.shape[1] == m
        np.testing.assert_array_equal(bits(a), bits(b))


# ---------------------------------------------------------------------------
# the CLI pool build against normalize-then-thin
# ---------------------------------------------------------------------------

def cli_config(*flags):
    return cli._merge_config(cli._build_parser().parse_args(["sweep-grid", *flags]))


POOL_CASES = {
    "stride": ["--pool-terrestrial", "12", "--pool-aerial", "9"],
    "uniform": ["--pool-terrestrial", "12", "--pool-aerial", "9", "--pool-policy", "uniform"],
    "keep_all_terrestrial": ["--pool-terrestrial", "-1", "--pool-aerial", "9",
                             "--pool-policy", "uniform"],
    "keep_all": ["--pool-terrestrial", "-1", "--pool-aerial", "-1", "--snr-db", "7.5"],
    "empty_aerial": ["--pool-terrestrial", "5", "--pool-aerial", "0", "--seed", "11"],
}


def expected_pool(dataset, cfg):
    per_layer = tuple(None if cfg[key] == -1 else cfg[key]
                      for key in ("pool_terrestrial", "pool_aerial"))
    return subsample_pool(normalize_to_snr(dataset, cfg["snr_db"]), per_layer,
                          PoolPolicy(cfg["pool_policy"]), seed=cfg["seed"])


@pytest.mark.parametrize("case", sorted(POOL_CASES))
def test_generated_pool_is_normalize_then_thin(case):
    cfg = cli_config(*MINI_FLAGS, *POOL_CASES[case])
    pool = cli._build_pool(cfg, cli._source(cfg))
    assert json.loads(cli._meta_json({}, cfg, "sweep-grid"))["mode"] == "generate"
    assert_same_dataset(pool, expected_pool(generate_synthetic(cli._scenario_from(cfg)), cfg))


@pytest.mark.parametrize("case", sorted(POOL_CASES))
def test_ingested_pool_is_normalize_then_thin(case, tmp_path):
    assert cli.main(["generate", "--out", str(tmp_path), *MINI_FLAGS]) == 0
    captures = [str(tmp_path / f"{layer.value}.bin") for layer in Layer]
    cfg = cli_config("--csi", ",".join(captures), *POOL_CASES[case])
    merged = merge_datasets([load_capture(path) for path in captures])
    want = expected_pool(merged, cfg)
    n = len(merged) // 2
    # one row, a block that does not divide a capture's rows, and one larger than them
    for block in (1, n - 1, n + 1):
        with mock.patch.object(csi, "_ROW_BLOCK", block):
            pool = cli._build_pool(cfg, cli._source(cfg))
        assert json.loads(cli._meta_json({}, cfg, "sweep-grid"))["mode"] == "ingest"
        assert_same_dataset(pool, want)


def test_default_pool_is_normalize_then_thin(default_pool):
    cfg = cli_config()
    pool = cli._build_pool(cfg, cli._source(cfg))
    assert_same_dataset(pool, default_pool)
    assert pool.fingerprint() == "29b278189045c8f6"


@pytest.mark.parametrize("command, digest", [
    ("sweep-total", DEFAULT_TOTAL_SHA256),
    ("sweep-grid", DEFAULT_GRID_SHA256),
])
def test_full_default_sweep_csv_is_pinned(command, digest, tmp_path):
    assert cli.main([command, "--out", str(tmp_path)]) == 0
    assert hashlib.sha256((tmp_path / "sweep.csv").read_bytes()).hexdigest() == digest


# ---------------------------------------------------------------------------
# memory
# ---------------------------------------------------------------------------

def generator_peak_bytes(config: ScenarioConfig) -> int:
    """The ``tracemalloc`` peak of one pass over the generator's blocks."""
    tracemalloc.start()
    try:
        for _ in csi._generated_blocks(config):
            pass
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_the_generators_working_set_does_not_grow_with_the_layer():
    # 1,334 and 13,334 rows per layer: a held layer of real draws (512 B a
    # row at M = 64) or any other per-row array shows as growth
    short, long = (ScenarioConfig(trajectory_length_m=length) for length in (2.0, 20.0))
    added_rows = long.samples_per_layer - short.samples_per_layer
    generator_peak_bytes(short)  # warm-up: first-call allocations are not the generator's
    growth = generator_peak_bytes(long) - generator_peak_bytes(short)
    assert growth < 64 * added_rows, (
        f"the generator's peak grew {growth / added_rows:.0f} B per added row of a layer")


# Linux records the high-water mark of the address space a process had
# before exec, and a child started from this test process shares this
# process's until then; a small launcher therefore starts the CLI and reports
# the CLI's own ru_maxrss from wait4 on its pid (not RUSAGE_CHILDREN, which
# counts every child the launcher ever waited for)
LAUNCHER = """
import os, subprocess, sys
proc = subprocess.Popen(sys.argv[1:], stdout=subprocess.DEVNULL)
_, status, usage = os.wait4(proc.pid, 0)
print(os.waitstatus_to_exitcode(status), usage.ru_maxrss)
"""


def cli_peak_rss_mb(env, *args) -> float:
    """Peak RSS in MB of one ``mimoshare.cli`` run, which must succeed."""
    proc = subprocess.run(
        [sys.executable, "-c", LAUNCHER, sys.executable, "-m", "mimoshare.cli", *args],
        env=env, capture_output=True, text=True, check=True,
    )
    returncode, maxrss_kb = (int(v) for v in proc.stdout.split())
    assert returncode == 0, proc.stderr
    return maxrss_kb / 1024.0


@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="ru_maxrss is in kilobytes on Linux only")
def test_sweep_peak_memory_stays_within_budget(tmp_path):
    src = str(Path(mimoshare.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    sweep = ("sweep-total", "--k-range", "1:4", "--trials", "1")
    generated_mb = cli_peak_rss_mb(env, *sweep, "--out", str(tmp_path / "sweep"))
    assert generated_mb <= SWEEP_PEAK_RSS_BUDGET_MB, f"sweep peak RSS {generated_mb:.1f} MB"
    capture = tmp_path / "capture"
    peak_mb = cli_peak_rss_mb(env, "generate", "--out", str(capture))
    assert peak_mb <= GENERATE_PEAK_RSS_BUDGET_MB, f"generate peak RSS {peak_mb:.1f} MB"
    captures = ",".join(str(capture / f"{layer.value}.bin") for layer in Layer)
    peak_mb = cli_peak_rss_mb(env, "ingest", "--csi", captures, "--out", str(tmp_path / "ingest"))
    assert peak_mb <= INGEST_PEAK_RSS_BUDGET_MB, f"ingest peak RSS {peak_mb:.1f} MB"
    peak_mb = cli_peak_rss_mb(env, *sweep, "--csi", captures, "--out", str(tmp_path / "ingested"))
    assert peak_mb <= SWEEP_PEAK_RSS_BUDGET_MB, f"ingest-mode sweep peak RSS {peak_mb:.1f} MB"
    assert generated_mb - peak_mb <= GENERATED_OVER_DECODED_MB, (
        f"the generated sweep peaks {generated_mb - peak_mb:.1f} MB above the ingest-mode "
        f"sweep, over {GENERATED_OVER_DECODED_MB:.0f} MB")
