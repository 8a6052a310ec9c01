import dataclasses
import math
import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (FUZZ_EXAMPLES, NOT_INTEGERS, VALUE_TEXT, not_an_integer, text_file_bytes,
                      trajectory_points)
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
)
from mimoshare.csi import _keep_rows, _parse_keyvalues

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


def test_encode_rejects_a_format_of_another_antenna_count():
    with pytest.raises(CaptureError, match="format M=8 does not match dataset M=4"):
        encode_csi_binary(make_dataset([np.zeros(4)]), FixedPointFormat(m_antennas=8))


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


@pytest.mark.parametrize(
    "text, message",
    [("layer = aerial\n", "sidecar is missing m_antennas"),
     ("m_antennas = 0\n", "m_antennas must be positive"),
     ("m_antennas = 16\nfrac_bits = 16\n", "frac_bits must be in 0..15")],
)
def test_sidecar_without_a_valid_format_names_the_file(tmp_path, text, message):
    path = tmp_path / "s.cfg"
    path.write_text(text)
    with pytest.raises(CaptureError) as info:
        read_sidecar(path)
    assert str(info.value) == f"{path}: {message}"


@pytest.mark.parametrize("text, lineno, first", [
    ("m_antennas = 16\nm_antennas = 8\n", 2, 1),
    ("m_antennas = 16\n# a comment\nlayer = aerial\n\nm_antennas=16\n", 5, 1),
    ("m_antennas = 16\nsnr_db = 20\nsnr_db = 21 # a key no caster reads\n", 3, 2),
])
def test_a_sidecar_that_sets_a_key_twice_names_both_lines(tmp_path, text, lineno, first):
    path = tmp_path / "s.cfg"
    path.write_text(text)
    key = text.splitlines()[lineno - 1].partition("=")[0].strip()
    with pytest.raises(CaptureError) as info:
        read_sidecar(path)
    assert str(info.value) == f"{path}:{lineno}: {key!r} is set again; line {first} set it first"


@pytest.mark.parametrize("key", ["m_antennas", "frac_bits", "byteorder", "layer",
                                 "sample_interval_ms", "altitude_m"])
def test_a_sidecar_extra_key_that_repeats_a_written_key_is_refused(key):
    with pytest.raises(ValueError, match=rf"^extra key '{key}' repeats a key the sidecar writes$"):
        sidecar_text(FixedPointFormat(m_antennas=4), Layer.AERIAL, altitude_m=24.0,
                     extra={"snr_db": 20.0, key: 1})


SIDECAR_LINES = st.tuples(
    st.sampled_from(["m_antennas", "frac_bits", "layer", "sample_interval_ms", "byteorder",
                     "altitude_m"]),
    VALUE_TEXT | st.sampled_from(["aerial", "terrestrial", "little", "big"]),
).map(" = ".join)


@settings(derandomize=True, deadline=None, max_examples=FUZZ_EXAMPLES)
@given(data=text_file_bytes(SIDECAR_LINES, header="m_antennas = 4"))
def test_any_sidecar_is_read_or_named(data):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "any.bin.cfg"
        path.write_bytes(data)
        try:
            read_sidecar(path)
        except CaptureError as exc:
            assert str(exc).startswith(f"{path}:")


@settings(derandomize=True, deadline=None, max_examples=FUZZ_EXAMPLES)
@given(interval=st.floats(min_value=0.0, exclude_min=True, allow_infinity=False),
       altitude=st.floats(allow_nan=False, allow_infinity=False))
@example(interval=1.2345678, altitude=24.0000001)  # :g writes 1.23457 and 24
def test_a_sidecar_reads_back_its_interval_and_altitude(interval, altitude):
    fmt = FixedPointFormat(m_antennas=4)
    text = sidecar_text(fmt, Layer.AERIAL, altitude_m=altitude, sample_interval_ms=interval)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "s.cfg"
        path.write_text(text)
        assert read_sidecar(path) == (fmt, Layer.AERIAL, interval)
        assert _parse_keyvalues(path, {"altitude_m": float})["altitude_m"] == altitude


def test_a_sidecar_writes_a_short_value_as_g_does():
    text = sidecar_text(FixedPointFormat(m_antennas=4), Layer.TERRESTRIAL, altitude_m=8.0)
    assert "sample_interval_ms = 1\n" in text
    assert "altitude_m = 8\n" in text


def test_merge_rejects_no_datasets_and_mixed_antenna_counts():
    with pytest.raises(ValueError, match="nothing to merge"):
        merge_datasets([])
    with pytest.raises(ValueError, match="datasets disagree on antenna count"):
        merge_datasets([make_dataset([np.ones(4)]), make_dataset([np.ones(5)])])


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


# a record is checked where it joins a dataset, not where it is made
@pytest.mark.parametrize("shape", [(2, 2), (0,), ()], ids=str)
def test_dataset_rejects_a_record_channel_that_is_not_one_vector(shape):
    record = CsiRecord(0, Layer.TERRESTRIAL, 0, np.ones(shape))
    with pytest.raises(ValueError, match=r"^record 0: channel shape ") as info:
        CsiDataset(records=(record,), m_antennas=2)
    assert f"channel shape {shape} does not match dataset m_antennas=2" in str(info.value)


def test_dataset_rejects_a_nonpositive_antenna_count():
    with pytest.raises(ValueError, match="m_antennas must be positive"):
        CsiDataset(records=(), m_antennas=0)


def test_dataset_rejects_a_record_with_nonfinite_gains():
    record = CsiRecord(0, Layer.TERRESTRIAL, 0, np.array([np.nan + 0j, 1.0]))
    with pytest.raises(ValueError, match="^channel vector contains NaN or Inf components$"):
        CsiDataset(records=(record,), m_antennas=2)


def test_a_list_channel_joins_as_a_read_only_complex_row():
    dataset = CsiDataset(records=(CsiRecord(0, Layer.AERIAL, 0, [1, 2.5]),), m_antennas=2)
    channel = dataset.records[0].channel
    assert channel.dtype == np.complex128 and not channel.flags.writeable
    np.testing.assert_array_equal(channel, [1, 2.5])


@pytest.mark.parametrize("value", NOT_INTEGERS, ids=repr)
@pytest.mark.parametrize("field", ["index", "timestep_ms"])
def test_dataset_rejects_a_record_index_or_timestep_that_is_not_an_integer(field, value):
    record = dataclasses.replace(CsiRecord(1, Layer.TERRESTRIAL, 2, np.ones(2)), **{field: value})
    name = "record index" if field == "index" else field
    with pytest.raises(TypeError, match=not_an_integer(name, value)):
        CsiDataset(records=(record,), m_antennas=2)


@pytest.mark.parametrize("value", NOT_INTEGERS, ids=repr)
def test_a_lookup_rejects_an_id_that_is_not_an_integer(value):
    ds = make_dataset([[1, 0], [0, 1]])
    with pytest.raises(TypeError, match=not_an_integer("record id", value)):
        ds.channels_for([0, value])


def test_a_lookup_takes_ids_of_any_integer_type_or_none():
    ds = make_dataset([[1, 0], [0, 1]], [Layer.TERRESTRIAL, Layer.AERIAL])
    for ids in ([1, 0], (np.int64(1), np.int32(0)), np.array([1, 0]), np.array([1, 0], np.uint8)):
        np.testing.assert_array_equal(ds.channels_for(ids), ds.channels[::-1])
    assert ds.channels_for([]).shape == (0, 2)


@pytest.mark.parametrize("rows", [slice(0, 2), slice(None, None, -2), slice(5, 9)], ids=str)
def test_a_slice_of_records_holds_the_records_of_those_rows(rows):
    ds = CsiDataset(records=[CsiRecord(i, layer, 10 * i, [i, 1j])
                             for i, layer in zip((4, 2, 9), (Layer.AERIAL, Layer.TERRESTRIAL,
                                                             Layer.AERIAL))], m_antennas=2)
    got = ds.records[rows]
    want = [ds.records[p] for p in range(len(ds))[rows]]
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert (g.index, g.layer, g.timestep_ms) == (w.index, w.layer, w.timestep_ms)
        np.testing.assert_array_equal(g.channel, w.channel)


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
    assert rec.layer is Layer.TERRESTRIAL
    position = trajectory_points(cfg, cfg.layer_altitudes_m[0])[7]
    for e in range(cfg.m_antennas):
        d = math.dist(position, elems[e])
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
    position = trajectory_points(cfg, cfg.layer_altitudes_m[0])[1]
    assert abs(position[0]) < 1e-12 and position[2] == 11.0
    mags = np.abs(middle.channel)
    assert mags.max() / mags.min() - 1 < 1e-6
    # phases still follow the exact per-element path lengths
    elems = element_positions(cfg)
    lam = cfg.wavelength_m
    for e in range(cfg.m_antennas):
        d = math.dist(position, elems[e])
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


# distances whose phase is extreme, both signs: tiny, huge, and multiples of pi
EXTREME_DISTANCES = [sign * d for sign in (1.0, -1.0) for d in (
    1e-300, 1e-8, math.pi, 2.0 * math.pi, 1e3 * math.pi, 2.0**40 * math.pi, 1e6, 1e15, 1e300)]


def test_real_phase_is_the_complex_exponential():
    """The generator's real-arithmetic phase has the bits of the complex exp it stands for.

    ``_generated_blocks`` writes ``np.cos`` / ``np.sin`` of ``d * (-2pi) * (1/lam)``
    into a block's real and imaginary parts, for ``np.exp(-2j*np.pi*d/lam)``.
    Those bits rest on numpy's float64 cos and sin matching libm's sincos
    inside cexp, which a platform's SIMD loops need not do.
    """
    cfg = ScenarioConfig()
    lam = cfg.wavelength_m
    elems = element_positions(cfg)
    dists = [np.sqrt(sum(np.square(trajectory_points(cfg, altitude)[:, None, axis]
                                   - elems[None, :, axis]) for axis in range(3)))
             for altitude in cfg.layer_altitudes_m]
    # -0.0 only: a distance of +0.0 gets the phase +0 from the complex product
    # and -0 from the real one, so sin's zero differs in sign; a zero distance
    # makes the amplitude infinite, though, and no dataset holds it (see below)
    half_waves = np.array([1.0, 2.0, 3.0, 1e6, 2.0**52]) * lam / 2.0  # phases near -k*pi
    d = np.concatenate([*(x.ravel() for x in dists), [-0.0], EXTREME_DISTANCES, half_waves])
    want = np.exp(-2j * np.pi * d / lam)
    got = np.empty_like(want)
    phase = d * (-2.0 * np.pi) * (1.0 / lam)
    np.cos(phase, out=got.real)
    np.sin(phase, out=got.imag)
    differ = (got.view(np.uint64) != want.view(np.uint64)).reshape(-1, 2).any(axis=1)
    assert not differ.any(), (
        f"np.cos / np.sin differ from np.exp's complex exponential at {differ.sum()} of "
        f"{len(d)} distances (first: {d[differ][:3]}), so the generator's real-arithmetic "
        "phase would shift every dataset fingerprint on this platform: keep the complex "
        "np.exp for the phase there, and take only the saved temporaries"
    )


def test_a_sample_on_an_element_is_rejected():
    # a standoff whose square underflows puts the middle sample on the only
    # element: its distance is +0.0 and its amplitude infinite
    cfg = ScenarioConfig(m_rows=1, m_cols=1, bs_height_m=8.0, standoff_distance_m=1e-200,
                         trajectory_length_m=2.0, trajectory_speed_mps=1.0,
                         sample_interval_ms=1000.0, layer_altitudes_m=(8.0, 24.0))
    offset = trajectory_points(cfg, 8.0)[1] - element_positions(cfg)[0]
    assert np.sum(np.square(offset)) == 0.0  # the generator's squared distance
    with np.errstate(all="ignore"), pytest.raises(ValueError, match="NaN or Inf"):
        generate_synthetic(cfg)


# the default trajectory's samples per layer, and the most antennas whose
# run (2 x 28321 rows of M x 16 bytes of gains and 26 bytes of columns)
# fits the 4 GiB bound
DEFAULT_SAMPLES = 28321
MOST_ANTENNAS = (4 * 2**30 // (2 * DEFAULT_SAMPLES) - 26) // 16


@pytest.mark.parametrize("overrides", [
    dict(m_rows=MOST_ANTENNAS + 1, m_cols=1),
    dict(m_rows=100_000, m_cols=100_000),
    dict(trajectory_length_m=1e300),  # more samples than a float counts
    dict(trajectory_speed_mps=1e-300, sample_interval_ms=1e-300),  # a step of 0.0
    # 2**27 - 1 samples a layer, 1 m apart, on one antenna: the gains alone,
    # 2 x (2**27 - 1) x 16 bytes, are just under the bound, but not with the columns
    dict(m_rows=1, m_cols=1, trajectory_length_m=2**27 - 2, trajectory_speed_mps=1.0,
         sample_interval_ms=1000.0),
], ids=str)
def test_scenario_past_the_size_bound_is_rejected_by_its_keys(overrides):
    with pytest.raises(ValueError, match="over the 4 GiB bound") as rejected:
        ScenarioConfig(**overrides)
    for key in ("m_rows", "m_cols", "trajectory_length_m", "trajectory_speed_mps",
                "sample_interval_ms"):
        assert key in str(rejected.value)


def test_scenario_at_the_size_bound_is_accepted():
    assert ScenarioConfig().samples_per_layer == DEFAULT_SAMPLES
    assert ScenarioConfig(m_rows=MOST_ANTENNAS, m_cols=1).m_antennas == MOST_ANTENNAS


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


def test_normalize_rejects_an_empty_dataset():
    with pytest.raises(ValueError, match="cannot normalize an empty dataset"):
        normalize_to_snr(CsiDataset(records=(), m_antennas=4), 20.0)


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


@pytest.mark.parametrize("policy", [*PoolPolicy, *(policy.value for policy in PoolPolicy)],
                         ids=repr)
def test_subsample_takes_a_policy_or_its_value(policy):
    ds = hundred_record_dataset()
    want = subsample_pool(ds, (10, None), PoolPolicy(policy), seed=5)
    got = subsample_pool(ds, (10, None), policy, seed=5)
    np.testing.assert_array_equal(got.ids, want.ids)
    # the two policies pick different rows here, so a value read as the other one shows
    other, = set(PoolPolicy) - {PoolPolicy(policy)}
    assert not np.array_equal(got.ids, subsample_pool(ds, (10, None), other, seed=5).ids)


@pytest.mark.parametrize("policy", ["bogus", None, "STRIDE", "SEEDED_UNIFORM", 0, ""], ids=repr)
def test_subsample_rejects_a_value_that_is_no_policy(policy):
    # a count of None draws nothing, and still the policy is checked
    for counts in [(10, None), (None, None)]:
        with pytest.raises(ValueError, match=f"^{re.escape(repr(policy))} is not a valid "
                                             "PoolPolicy$"):
            subsample_pool(hundred_record_dataset(), counts, policy)


def test_uniform_pools_draw_every_layer_from_one_stream():
    codes = np.repeat(np.array([Layer.TERRESTRIAL.code, Layer.AERIAL.code], dtype=np.int8), [7, 5])
    for counts in [(3, 2), (0, 2), (None, 2), (3, 0)]:
        rng = np.random.default_rng(9)  # one stream, drawn only where a layer is thinned
        want = np.zeros(len(codes), dtype=bool)
        for start, population, count in ((0, 7, counts[0]), (7, 5, counts[1])):
            if count is None:
                want[start:start + population] = True
            elif count:
                want[start + rng.choice(population, size=count, replace=False)] = True
        keep = _keep_rows(codes, counts, PoolPolicy.SEEDED_UNIFORM, seed=9)
        np.testing.assert_array_equal(keep, want, err_msg=str(counts))


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


@pytest.mark.parametrize("value", NOT_INTEGERS, ids=repr)
@pytest.mark.parametrize("layer", Layer, ids=lambda layer: layer.value)
@pytest.mark.parametrize("policy", PoolPolicy, ids=lambda policy: policy.value)
def test_subsample_rejects_a_count_that_is_not_an_integer(policy, layer, value):
    ds = make_dataset(np.eye(6), [Layer.TERRESTRIAL] * 3 + [Layer.AERIAL] * 3)
    counts = [3, 3]
    counts[layer.code] = value
    with pytest.raises(TypeError, match=not_an_integer(f"{layer.value} count", value)):
        subsample_pool(ds, tuple(counts), policy)


def test_subsample_rejects_counts_that_are_not_a_pair():
    with pytest.raises(ValueError, match=r"per_layer_count must be a \(terrestrial, aerial\) pair"):
        subsample_pool(hundred_record_dataset(), (10, None, 5))


def test_subsample_to_published_pool_shape(default_pool):
    # 36 ground / 28 aerial candidate locations
    counts = default_pool.layer_counts()
    assert counts[Layer.TERRESTRIAL] == 36
    assert counts[Layer.AERIAL] == 28
    assert default_pool.noise_power == pytest.approx(0.01, rel=1e-12)
