import math

import numpy as np
import pytest

from mimoshare.csi import (
    CaptureError,
    CsiDataset,
    CsiRecord,
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
    sidecar_text,
    subsample_pool,
    trajectory_points,
)

Q115_64 = FixedPointFormat(m_antennas=64)


def make_dataset(vectors, layers=None):
    vectors = [np.asarray(v, dtype=np.complex128) for v in vectors]
    if layers is None:
        layers = [Layer.TERRESTRIAL] * len(vectors)
    records = tuple(
        CsiRecord(index=i, layer=layer, timestep_ms=i, channel=v)
        for i, (v, layer) in enumerate(zip(vectors, layers))
    )
    return CsiDataset(records=records, m_antennas=vectors[0].shape[0])


# ---------------------------------------------------------------------------
# fixed-point decode / encode
# ---------------------------------------------------------------------------

def test_decode_all_zero_record(tmp_path):
    path = tmp_path / "zeros.bin"
    path.write_bytes(bytes(256))  # one timestep of 64 zero complex values
    ds = load_csi_binary(path, Q115_64)
    assert len(ds) == 1
    assert np.all(ds.records[0].channel == 0)


def test_decode_q115_half(tmp_path):
    # I = 0x4000 -> 16384 / 32768 = 0.5 exactly, hand-decoded
    payload = bytearray(2 * 256)
    payload[0:2] = (0x4000).to_bytes(2, "little")
    path = tmp_path / "two.bin"
    path.write_bytes(bytes(payload))
    ds = load_csi_binary(path, Q115_64)
    assert len(ds) == 2
    assert ds.records[0].channel[0] == 0.5 + 0.0j
    assert np.all(ds.records[1].channel == 0)


def test_decode_truncated_file(tmp_path):
    path = tmp_path / "trunc.bin"
    path.write_bytes(bytes(255))
    with pytest.raises(CaptureError):
        load_csi_binary(path, Q115_64)


def test_decode_empty_file(tmp_path):
    path = tmp_path / "empty.bin"
    path.write_bytes(b"")
    with pytest.raises(CaptureError):
        load_csi_binary(path, Q115_64)


def test_decode_antenna_count_mismatch(tmp_path):
    path = tmp_path / "m.bin"
    path.write_bytes(bytes(256))  # valid for M=64, not for M=63
    with pytest.raises(CaptureError):
        load_csi_binary(path, FixedPointFormat(m_antennas=63))


def test_decode_encode_roundtrip_is_bytes_exact(tmp_path):
    rng = np.random.default_rng(11)
    raw = rng.integers(-32768, 32768, size=3 * 64 * 2, dtype=np.int16).tobytes()
    path = tmp_path / "rt.bin"
    path.write_bytes(raw)
    ds = load_csi_binary(path, Q115_64)
    assert encode_csi_binary(ds, Q115_64) == raw


def test_encode_rejects_out_of_range_gains():
    ds = make_dataset([np.array([1.5 + 0j, 0j])])
    with pytest.raises(ValueError):
        encode_csi_binary(ds)


def test_save_load_with_sidecar(tmp_path):
    rng = np.random.default_rng(4)
    ds = make_dataset([rng.standard_normal(8) * 0.1 + 0j for _ in range(5)], [Layer.AERIAL] * 5)
    fmt = FixedPointFormat(m_antennas=8)
    bin_path = tmp_path / "cap.bin"
    bin_path.write_bytes(encode_csi_binary(ds, fmt))
    (tmp_path / "cap.bin.cfg").write_text(
        sidecar_text(fmt, Layer.AERIAL, altitude_m=24.0, sample_interval_ms=2.0)
    )
    back = load_capture(bin_path)
    assert len(back) == 5
    assert all(r.layer is Layer.AERIAL for r in back.records)
    assert [r.timestep_ms for r in back.records] == [0, 2, 4, 6, 8]
    assert np.abs(back.channels - ds.channels).max() <= 2.0**-15


def test_read_sidecar_defaults(tmp_path):
    path = tmp_path / "s.cfg"
    path.write_text("m_antennas = 16\n")
    fmt, layer, interval = read_sidecar(path)
    assert fmt == FixedPointFormat(m_antennas=16)
    assert layer is Layer.TERRESTRIAL
    assert interval == 1.0


def test_read_sidecar_accepts_both_byteorders(tmp_path):
    path = tmp_path / "s.cfg"
    for order, little in (("little", True), ("big", False)):
        path.write_text(f"m_antennas = 16\nbyteorder = {order}\n")
        assert read_sidecar(path)[0].little_endian is little


def test_read_sidecar_rejects_unknown_byteorder(tmp_path):
    path = tmp_path / "s.cfg"
    path.write_text("m_antennas = 16\nbyteorder = littel\n")
    with pytest.raises(CaptureError, match="littel"):
        read_sidecar(path)


@pytest.mark.parametrize("interval", ["-2", "0", "nan", "inf"])
def test_read_sidecar_rejects_nonpositive_or_nonfinite_interval(tmp_path, interval):
    path = tmp_path / "s.cfg"
    path.write_text(f"m_antennas = 16\nsample_interval_ms = {interval}\n")
    with pytest.raises(CaptureError, match=r"s\.cfg: sample_interval_ms"):
        read_sidecar(path)


def test_load_rejects_nonfinite_interval(tmp_path):
    path = tmp_path / "cap.bin"
    path.write_bytes(bytes(Q115_64.bytes_per_record))
    with pytest.raises(CaptureError, match="sample_interval_ms"):
        load_csi_binary(path, Q115_64, sample_interval_ms=float("nan"))


def test_sidecar_syntax_error_names_the_file(tmp_path):
    path = tmp_path / "s.cfg"
    path.write_text("m_antennas = 16\nlayer aerial\n")
    with pytest.raises(ValueError, match=r"s\.cfg:2"):
        read_sidecar(path)


@pytest.mark.parametrize(
    "key, value",
    [("m_antennas", "6x4"), ("frac_bits", "fifteen"), ("layer", "Aerial"),
     ("sample_interval_ms", "1ms")],
)
def test_bad_sidecar_value_names_the_file_and_key(tmp_path, key, value):
    path = tmp_path / "s.cfg"
    lines = {"m_antennas": "16", key: value}
    path.write_text("".join(f"{k} = {v}\n" for k, v in lines.items()))
    with pytest.raises(CaptureError, match=rf"s\.cfg:\d+: bad value for '{key}': .*{value}"):
        read_sidecar(path)


def test_merge_renumbers_ids():
    a = make_dataset([np.ones(4)], [Layer.TERRESTRIAL])
    b = make_dataset([np.ones(4) * 2, np.ones(4) * 3], [Layer.AERIAL, Layer.AERIAL])
    merged = merge_datasets([a, b])
    assert [r.index for r in merged.records] == [0, 1, 2]
    assert merged.layer_counts() == {Layer.TERRESTRIAL: 1, Layer.AERIAL: 2}


# ---------------------------------------------------------------------------
# dataset invariants
# ---------------------------------------------------------------------------

def test_dataset_rejects_mixed_antenna_counts():
    r0 = CsiRecord(0, Layer.TERRESTRIAL, 0, np.ones(4))
    r1 = CsiRecord(1, Layer.TERRESTRIAL, 1, np.ones(5))
    with pytest.raises(ValueError):
        CsiDataset(records=(r0, r1), m_antennas=4)


def test_dataset_rejects_duplicate_ids():
    r0 = CsiRecord(0, Layer.TERRESTRIAL, 0, np.ones(4))
    r1 = CsiRecord(0, Layer.AERIAL, 1, np.ones(4))
    with pytest.raises(ValueError):
        CsiDataset(records=(r0, r1), m_antennas=4)


def test_record_rejects_nonfinite_gains():
    with pytest.raises(ValueError):
        CsiRecord(0, Layer.TERRESTRIAL, 0, np.array([np.nan + 0j, 1.0]))


# ---------------------------------------------------------------------------
# synthetic generator
# ---------------------------------------------------------------------------

def small_config(**kw):
    base = dict(trajectory_length_m=4.0, trajectory_speed_mps=1.0,
                sample_interval_ms=100.0, seed=9)
    base.update(kw)
    return ScenarioConfig(**base)


def test_generate_is_deterministic():
    a = generate_synthetic(small_config())
    b = generate_synthetic(small_config())
    assert a.fingerprint() == b.fingerprint()
    assert np.array_equal(a.channels, b.channels)


def test_same_point_without_diffuse_is_identical():
    cfg = small_config(rician_k_db=(math.inf, math.inf))
    a = generate_synthetic(cfg)
    b = generate_synthetic(cfg)
    ha = a.records[5].channel
    hb = b.records[5].channel
    assert np.array_equal(ha, hb)
    corr = np.abs(np.vdot(ha, hb)) / (np.linalg.norm(ha) * np.linalg.norm(hb))
    assert corr == pytest.approx(1.0, abs=1e-12)


def test_los_phase_matches_independent_distance_computation():
    cfg = small_config(rician_k_db=(math.inf, math.inf))
    ds = generate_synthetic(cfg)
    elems = element_positions(cfg)
    lam = cfg.wavelength_m
    rec = ds.records[7]
    for e in range(cfg.m_antennas):
        d = math.dist(rec.position, elems[e])
        expected = (lam / (4 * math.pi * d)) * np.exp(-2j * np.pi * d / lam)
        assert abs(rec.channel[e] - expected) < 1e-15


def test_broadside_user_has_equal_gain_magnitudes():
    # user straight ahead of the array center at large standoff, LOS only
    cfg = ScenarioConfig(
        trajectory_length_m=2.0,
        trajectory_speed_mps=1.0,
        sample_interval_ms=1000.0,
        standoff_distance_m=3000.0,
        layer_altitudes_m=(11.0, 24.0),  # terrestrial pass at array height
        rician_k_db=(math.inf, math.inf),
    )
    ds = generate_synthetic(cfg)
    middle = ds.records[1]  # x = 0: broadside
    assert middle.layer is Layer.TERRESTRIAL
    assert abs(middle.position[0]) < 1e-12 and middle.position[2] == 11.0
    mags = np.abs(middle.channel)
    assert mags.max() / mags.min() - 1 < 1e-6
    # phases still follow the exact per-element path lengths
    elems = element_positions(cfg)
    lam = cfg.wavelength_m
    for e in range(cfg.m_antennas):
        d = math.dist(middle.position, elems[e])
        assert abs(middle.channel[e] / mags[e] - np.exp(-2j * np.pi * d / lam)) < 1e-9


def test_default_pool_correlation_ordering_aerial_above_terrestrial(default_pool):
    def mean_pairwise(layer):
        x = default_pool.channels[default_pool.layer_codes == layer.code]
        xn = x / np.linalg.norm(x, axis=1, keepdims=True)
        c = np.abs(xn @ xn.conj().T)
        iu = np.triu_indices(len(x), 1)
        return float(c[iu].mean())

    assert mean_pairwise(Layer.AERIAL) > mean_pairwise(Layer.TERRESTRIAL)


def test_sample_count_matches_trajectory_arithmetic():
    cfg = ScenarioConfig()
    # 42.48 m at 1.5 m/s sampled every 1 ms -> 28320 steps + start point
    assert cfg.samples_per_layer == 28321
    pts = trajectory_points(cfg, 24.0)
    assert pts.shape == (28321, 3)
    assert pts[0, 0] == pytest.approx(-21.24)
    assert pts[-1, 0] == pytest.approx(21.24)


def test_invalid_geometry_rejected():
    with pytest.raises(ValueError):
        ScenarioConfig(standoff_distance_m=0.0)
    with pytest.raises(ValueError):
        ScenarioConfig(layer_altitudes_m=(8.0, 8.0))
    with pytest.raises(ValueError):
        ScenarioConfig(trajectory_speed_mps=-1.0)


POSITIVE_FIELDS = [
    "m_rows", "m_cols", "carrier_hz", "element_spacing_wavelengths", "bs_height_m",
    "trajectory_length_m", "trajectory_speed_mps", "sample_interval_ms", "standoff_distance_m",
]
NONFINITE_SCENARIO_CASES = (
    [(field, bad) for field in POSITIVE_FIELDS for bad in (math.nan, math.inf)]
    + [("layer_altitudes_m", alts) for alts in ((math.nan, 24.0), (8.0, math.inf))]
    + [("rician_k_db", ks) for ks in ((math.nan, 20.0), (3.0, -math.inf))]
)


@pytest.mark.parametrize("field, value", NONFINITE_SCENARIO_CASES, ids=str)
def test_nonfinite_scenario_value_is_rejected_by_name(field, value):
    with pytest.raises(ValueError, match=field):
        ScenarioConfig(**{field: value})


# ---------------------------------------------------------------------------
# normalization
# ---------------------------------------------------------------------------

def test_normalize_unit_norm_dataset_is_identity():
    ds = make_dataset([np.array([1.0, 0j]), np.array([0j, 1.0])])
    out = normalize_to_snr(ds, 20.0)
    assert out.scale_applied == pytest.approx(1.0, abs=1e-15)
    assert out.noise_power == pytest.approx(0.01, rel=1e-12)
    assert out.snr_target_db == 20.0


def test_normalize_mixed_norms():
    ds = make_dataset([np.array([1.0, 0j]), np.array([2.0, 0j])])  # ||h||^2 = 1 and 4
    out = normalize_to_snr(ds, 20.0)
    assert out.scale_applied == pytest.approx(1 / math.sqrt(2.5), rel=1e-12)
    mean_sq = np.mean(np.sum(np.abs(out.channels) ** 2, axis=1))
    assert abs(mean_sq - 1.0) < 1e-9


def test_normalize_zero_db_noise_is_one():
    ds = make_dataset([np.array([3.0, 4.0j])])
    assert normalize_to_snr(ds, 0.0).noise_power == 1.0


def test_normalize_is_idempotent():
    rng = np.random.default_rng(2)
    ds = make_dataset([rng.standard_normal(6) + 1j * rng.standard_normal(6) for _ in range(9)])
    once = normalize_to_snr(ds, 20.0)
    twice = normalize_to_snr(once, 20.0)
    assert np.abs(twice.channels - once.channels).max() < 1e-12
    assert twice.scale_applied == pytest.approx(once.scale_applied, rel=1e-12)


def test_normalize_rejects_all_zero():
    ds = make_dataset([np.zeros(4)])
    with pytest.raises(ValueError):
        normalize_to_snr(ds, 20.0)


@pytest.mark.parametrize("snr_db", [math.nan, math.inf, -math.inf])
def test_normalize_rejects_nonfinite_snr(snr_db):
    ds = make_dataset([np.array([3.0, 4.0j])])
    with pytest.raises(ValueError, match="snr_db"):
        normalize_to_snr(ds, snr_db)


def test_normalize_mean_square_norm_invariant(mini_pool):
    mean_sq = np.mean(np.sum(np.abs(mini_pool.channels) ** 2, axis=1))
    # the pool is a subsample of a normalized dataset, renormalizing restores 1
    again = normalize_to_snr(mini_pool, 20.0)
    mean_sq2 = np.mean(np.sum(np.abs(again.channels) ** 2, axis=1))
    assert abs(mean_sq2 - 1.0) < 1e-9
    assert np.isfinite(mean_sq)


# ---------------------------------------------------------------------------
# pool subsampling
# ---------------------------------------------------------------------------

def hundred_record_dataset():
    rng = np.random.default_rng(0)
    vectors = [rng.standard_normal(4) + 1j for _ in range(100)]
    return make_dataset(vectors)


def test_subsample_identity():
    ds = hundred_record_dataset()
    out = subsample_pool(ds, (None, None))
    assert [r.index for r in out.records] == [r.index for r in ds.records]


def test_subsample_stride_ranks():
    ds = hundred_record_dataset()
    out = subsample_pool(ds, (10, None), PoolPolicy.STRIDE)
    assert [r.index for r in out.records] == [0, 10, 20, 30, 40, 50, 60, 70, 80, 90]


def test_subsample_uniform_is_seeded():
    ds = hundred_record_dataset()
    a = subsample_pool(ds, (10, None), PoolPolicy.SEEDED_UNIFORM, seed=5)
    b = subsample_pool(ds, (10, None), PoolPolicy.SEEDED_UNIFORM, seed=5)
    c = subsample_pool(ds, (10, None), PoolPolicy.SEEDED_UNIFORM, seed=6)
    ids_a = [r.index for r in a.records]
    assert ids_a == [r.index for r in b.records]
    assert ids_a == sorted(ids_a)
    assert ids_a != [r.index for r in c.records]


def test_subsample_count_exceeding_population():
    ds = hundred_record_dataset()
    with pytest.raises(ValueError):
        subsample_pool(ds, (101, None))
    with pytest.raises(ValueError):
        subsample_pool(ds, (None, 1))  # no aerial records at all


def test_subsample_rejects_negative_count():
    ds = hundred_record_dataset()
    with pytest.raises(ValueError, match="-3"):
        subsample_pool(ds, (-3, None))


def test_subsample_to_published_pool_shape(default_pool):
    # 36 ground / 28 aerial candidate locations
    counts = default_pool.layer_counts()
    assert counts[Layer.TERRESTRIAL] == 36
    assert counts[Layer.AERIAL] == 28
    assert default_pool.noise_power == pytest.approx(0.01, rel=1e-12)
