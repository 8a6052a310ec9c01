"""The row-blocked pool build against the whole-array code it replaced.

``literal_generate_synthetic`` is the whole-array generator, kept here
unchanged as the oracle: the blocked generator must reproduce its bits for
every block size. The CLI's pool build scales only the kept rows; it must
give exactly ``subsample_pool(normalize_to_snr(dataset, snr), ...)``.
"""

import hashlib
import math
import os
import subprocess
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import mimoshare
from mimoshare import cli, csi
from mimoshare.csi import (
    CsiDataset,
    Layer,
    PoolPolicy,
    ScenarioConfig,
    element_positions,
    generate_synthetic,
    load_capture,
    merge_datasets,
    normalize_to_snr,
    subsample_pool,
    trajectory_points,
)

HYPOTHESIS = settings(derandomize=True, deadline=None, max_examples=40)
MINI_FLAGS = ["--trajectory-length-m", "4", "--trajectory-speed-mps", "1",
              "--sample-interval-ms", "100", "--seed", "3"]

# sha256 of sweep.csv from the full default `sweep-total` and `sweep-grid`,
# recorded with the whole-array generator and normalization
DEFAULT_TOTAL_SHA256 = "46ca5196772a43e568afc3262dc7932fdb7d2da06a806ac599b3df2ba2bb6afa"
DEFAULT_GRID_SHA256 = "f9ae4ff3d6132bd3d53cda969c102f3a9162a556e10e03e089a9410e04b551eb"

# interpreter and numpy, one 58 MB channel matrix, one layer's 14.5 MB real
# draws, and margin; building a full-size normalized copy exceeds it
SWEEP_PEAK_RSS_BUDGET_MB = 160
# interpreter and numpy, the two 29 MB decoded layers and their 58 MB merge,
# and margin; decoding through separate float and complex copies exceeds it
INGEST_PEAK_RSS_BUDGET_MB = 170


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
    positions = np.empty((2 * n, 3))
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
        positions[rows] = pts
    steps = np.tile(np.arange(n), 2)
    codes = np.repeat(np.array([layer.code for layer in Layer], dtype=np.int8), n)
    return CsiDataset._of(config.m_antennas, channels, np.arange(2 * n), codes,
                          np.round(steps * config.sample_interval_ms).astype(np.int64), positions)


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
    if want.positions is None:
        assert got.positions is None
    else:
        np.testing.assert_array_equal(bits(got.positions), bits(want.positions))
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
def test_blocked_generator_reproduces_the_whole_array_oracle(config):
    n = config.samples_per_layer
    want = literal_generate_synthetic(config)
    # one row, a block that does not divide n (n >= 3), and one larger than n
    for block in (1, n - 1, n + 1):
        with mock.patch.object(csi, "_ROW_BLOCK", block):
            assert_same_dataset(generate_synthetic(config), want)


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
                csi._snr_scale(dataset)
            return
        scale = csi._snr_scale(dataset)
        normalized = normalize_to_snr(dataset, 10.0)
    assert scale == 1 / np.sqrt(mean_sq_norm)
    np.testing.assert_array_equal(bits(normalized.channels), bits(gains * scale))
    assert normalized.scale_applied == scale


def test_default_scenario_matches_the_oracle():
    config = ScenarioConfig(seed=1)
    assert_same_dataset(generate_synthetic(config), literal_generate_synthetic(config))


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
    pool, mode = cli._build_pool(cfg)
    assert mode == "generate"
    assert_same_dataset(pool, expected_pool(generate_synthetic(cli._scenario_from(cfg)), cfg))


@pytest.mark.parametrize("case", sorted(POOL_CASES))
def test_ingested_pool_is_normalize_then_thin(case, tmp_path):
    assert cli.main(["generate", "--out", str(tmp_path), *MINI_FLAGS]) == 0
    captures = [str(tmp_path / f"{layer.value}.bin") for layer in Layer]
    cfg = cli_config("--csi", ",".join(captures), *POOL_CASES[case])
    pool, mode = cli._build_pool(cfg)
    assert mode == "ingest"
    merged = merge_datasets([load_capture(path) for path in captures])
    assert_same_dataset(pool, expected_pool(merged, cfg))


def test_default_pool_is_normalize_then_thin(default_pool):
    pool, _ = cli._build_pool(cli_config())
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
    peak_mb = cli_peak_rss_mb(env, "sweep-total", "--k-range", "1:4", "--trials", "1",
                              "--out", str(tmp_path / "sweep"))
    assert peak_mb <= SWEEP_PEAK_RSS_BUDGET_MB, f"sweep peak RSS {peak_mb:.1f} MB"
    # ingest of the default capture: the decoder scales the int16 samples once
    # and views the result as complex gains
    capture = tmp_path / "capture"
    cli_peak_rss_mb(env, "generate", "--out", str(capture))
    captures = ",".join(str(capture / f"{layer.value}.bin") for layer in Layer)
    peak_mb = cli_peak_rss_mb(env, "ingest", "--csi", captures, "--out", str(tmp_path / "ingest"))
    assert peak_mb <= INGEST_PEAK_RSS_BUDGET_MB, f"ingest peak RSS {peak_mb:.1f} MB"
