"""Channel data model: capture ingestion, synthetic two-layer generation, SNR normalization.

A dataset is an ordered pool of per-timestep channel vectors (one complex gain
per base-station antenna), each tagged with the user layer it belongs to.
Datasets come either from raw fixed-point capture files or from the built-in
geometric generator, and are normalized to a target average SNR before any
link-level evaluation.
"""

from __future__ import annotations

import enum
import functools
import hashlib
import math
import tempfile
from collections.abc import Sequence
from dataclasses import dataclass
from pathlib import Path
from typing import BinaryIO, Callable, Iterable, Iterator, Mapping

import numpy as np

__all__ = [
    "SPEED_OF_LIGHT",
    "Layer",
    "CaptureError",
    "CsiRecord",
    "CsiDataset",
    "FixedPointFormat",
    "ScenarioConfig",
    "PoolPolicy",
    "load_csi_binary",
    "encode_csi_binary",
    "read_sidecar",
    "sidecar_text",
    "load_capture",
    "merge_datasets",
    "generate_synthetic",
    "element_positions",
    "normalize_to_snr",
    "subsample_pool",
]

SPEED_OF_LIGHT = 299_792_458.0  # m/s

# rows per block when generating channels or summing their energies, and
# channel rows per stack when a sweep evaluates its schedules: a block's
# temporaries stay small, and the bits do not depend on the size
_ROW_BLOCK = 256

# the most a run may hold of a scenario's whole dataset, in bytes: 16 a gain,
# 17 a row of columns (ids, layer codes, timesteps) and 9 a row of a sweep's
# row energies and keep mask: 4 GiB, ~70x the default's 59 MB. generate holds
# the whole matrix and every sweep generates every row, so a larger scenario
# would exhaust memory or run for minutes before failing; it fails as it is
# built instead
_MAX_DATASET_BYTES = 4 * 2**30


class Layer(enum.Enum):
    """User layer a candidate location belongs to."""

    TERRESTRIAL = "terrestrial"
    AERIAL = "aerial"

    @property
    def code(self) -> int:
        """This layer's value in ``CsiDataset.layer_codes``: its declaration rank."""
        return _LAYERS.index(self)


# the layers in declaration order, so _LAYERS[code] is the layer of a code
_LAYERS = tuple(Layer)


class CaptureError(ValueError):
    """Raised when a capture file does not match its declared binary format."""


def _row_blocks(rows: np.ndarray) -> Iterator[np.ndarray]:
    """Views of ``rows``, ``_ROW_BLOCK`` rows at a time, in order."""
    return (rows[start:start + _ROW_BLOCK] for start in range(0, len(rows), _ROW_BLOCK))


def _check_finite(gains: np.ndarray) -> None:
    if not np.isfinite(gains).all():
        raise ValueError("channel vector contains NaN or Inf components")


def _integer(value, name: str) -> int:
    """``value`` as an int; a TypeError names it if it is a bool or no integer."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise TypeError(f"{name} {value!r} is not an integer")
    return int(value)


def _integers(values, name: str) -> np.ndarray:
    """``values`` as an int64 array; a TypeError names the first that is a bool or no integer."""
    if not (isinstance(values, np.ndarray) and values.dtype.kind in "iu"):
        values = list(values)
        for value in values:
            _integer(value, name)
    return np.asarray(values, dtype=np.int64)


@dataclass(frozen=True)
class CsiRecord:
    """One candidate user location: a timestamped channel, checked by the dataset it joins."""

    index: int
    layer: Layer
    timestep_ms: int
    channel: np.ndarray  # (M,) complex gains across the BS antennas


class _RecordView(Sequence):
    """A dataset's rows as :class:`CsiRecord` objects, each built when accessed."""

    def __init__(self, dataset: CsiDataset):
        self._dataset = dataset

    def __len__(self) -> int:
        return len(self._dataset)

    def __getitem__(self, pos):
        ds = self._dataset
        if isinstance(pos, slice):
            return _RecordView(ds.take(pos))
        return CsiRecord(int(ds.ids[pos]), _LAYERS[ds.layer_codes[pos]],
                         int(ds.timesteps_ms[pos]), ds.channels[pos])


@dataclass(frozen=True, init=False, eq=False)
class CsiDataset:
    """Ordered pool of channel records plus normalization metadata.

    Columnar: row p of each array belongs to the p-th record, and every array
    is read-only, so instances are immutable and safe to share across
    concurrent evaluations. ``CsiDataset(records, m_antennas, ...)`` builds
    one from :class:`CsiRecord` objects, the one place a record is checked;
    ``records`` builds them back, one per access, each channel a read-only row.
    ``noise_power`` is the linear noise variance implied by the target SNR,
    set by :func:`normalize_to_snr`; until then the dataset is un-normalized
    (``scale_applied`` 1, ``noise_power`` None).
    """

    m_antennas: int
    channels: np.ndarray  # (N, M) complex128
    ids: np.ndarray  # (N,) int64 record ids, unique, in any order
    layer_codes: np.ndarray  # (N,) int8 Layer.code values
    timesteps_ms: np.ndarray  # (N,) int64
    scale_applied: float
    noise_power: float | None  # sigma^2, linear
    snr_target_db: float | None

    def __init__(self, records: Iterable[CsiRecord], m_antennas: int, scale_applied: float = 1.0,
                 noise_power: float | None = None, snr_target_db: float | None = None):
        records = tuple(records)
        for rec in records:
            if np.shape(rec.channel) != (m_antennas,):
                raise ValueError(f"record {rec.index}: channel shape {np.shape(rec.channel)} "
                                 f"does not match dataset m_antennas={m_antennas}")
        self._set(
            m_antennas,
            np.array([r.channel for r in records], np.complex128).reshape(len(records), m_antennas),
            _integers([r.index for r in records], "record index"),
            np.array([r.layer.code for r in records], dtype=np.int8),
            _integers([r.timestep_ms for r in records], "timestep_ms"),
            scale_applied, noise_power, snr_target_db,
        )

    @classmethod
    def _of(cls, *columns, **metadata) -> CsiDataset:
        """Array-built dataset: it takes ownership of the arrays and freezes them."""
        return cls.__new__(cls)._set(*columns, **metadata)

    def _set(self, m_antennas, channels, ids, layer_codes, timesteps_ms,
             scale_applied=1.0, noise_power=None, snr_target_db=None) -> CsiDataset:
        if m_antennas <= 0:
            raise ValueError("m_antennas must be positive")
        _check_finite(channels)
        id_order = np.argsort(ids, kind="stable")
        repeats = ids[id_order][1:][np.diff(ids[id_order]) == 0]
        if repeats.size:
            raise ValueError(f"duplicate record index {repeats[0]}")
        for array in (channels, ids, layer_codes, timesteps_ms, id_order):
            array.flags.writeable = False
        self.__dict__.update(
            m_antennas=m_antennas, channels=channels, ids=ids, layer_codes=layer_codes,
            timesteps_ms=timesteps_ms, scale_applied=scale_applied,
            noise_power=noise_power, snr_target_db=snr_target_db, _id_order=id_order,
        )
        return self

    def __len__(self) -> int:
        return len(self.ids)

    @property
    def records(self) -> Sequence[CsiRecord]:
        """The records in dataset order, each built as a :class:`CsiRecord` on access."""
        return _RecordView(self)

    def take(self, rows) -> CsiDataset:
        """The records at the given rows (positions or a boolean mask), metadata kept."""
        return CsiDataset._of(
            self.m_antennas, self.channels[rows], self.ids[rows], self.layer_codes[rows],
            self.timesteps_ms[rows], self.scale_applied, self.noise_power, self.snr_target_db,
        )

    def channels_for(self, indices: Iterable[int]) -> np.ndarray:
        """The read-only (K, M) channels of the given record ids; KeyError names an unknown id."""
        wanted = _integers(indices, "record id")
        if wanted.size and not len(self):
            raise KeyError(int(wanted[0]))  # nothing to take a row from
        ranks = np.searchsorted(self.ids, wanted, sorter=self._id_order)
        rows = self._id_order.take(ranks, mode="clip")
        unknown = wanted[self.ids[rows] != wanted]
        if unknown.size:
            raise KeyError(int(unknown[0]))
        channels = self.channels[rows]
        channels.flags.writeable = False
        return channels

    def layer_counts(self) -> dict[Layer, int]:
        """Records per layer."""
        return dict(zip(Layer, np.bincount(self.layer_codes, minlength=len(Layer)).tolist()))

    def fingerprint(self) -> str:
        """Short content hash covering ids, layers, timesteps and gains."""
        columns = (self.ids, self.layer_codes, self.timesteps_ms)
        return _fingerprint(self.m_antennas, columns, _row_blocks(self.channels))


def _fingerprint(m: int, columns: tuple, blocks: Iterable[np.ndarray]) -> str:
    """``CsiDataset.fingerprint`` of these (ids, codes, timesteps) columns, gains in row blocks."""
    digest = hashlib.sha256()
    digest.update(f"M={m};".encode())
    names = [layer.value for layer in Layer]
    stop = 0
    for block in blocks:
        start, stop = stop, stop + len(block)
        rows = zip(*(column[start:stop].tolist() for column in columns))
        for (index, code, timestep), channel in zip(rows, block):
            digest.update(f"{index},{names[code]},{timestep};".encode())
            digest.update(channel)
    return digest.hexdigest()[:16]


# ---------------------------------------------------------------------------
# Fixed-point capture files
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FixedPointFormat:
    """Binary layout of a capture file.

    Each timestep is a block of ``m_antennas`` complex values, every value a
    pair of 16-bit signed integers (I then Q). ``frac_bits`` 15 is Q1.15.
    """

    m_antennas: int
    frac_bits: int = 15
    little_endian: bool = True

    def __post_init__(self):
        if self.m_antennas <= 0:
            raise ValueError("m_antennas must be positive")
        if not 0 <= self.frac_bits <= 15:
            raise ValueError("frac_bits must be in 0..15")

    @property
    def bytes_per_record(self) -> int:
        return self.m_antennas * 2 * 2

    @property
    def dtype(self) -> np.dtype:
        return np.dtype("<i2" if self.little_endian else ">i2")


def load_csi_binary(
    path,
    fmt: FixedPointFormat,
    *,
    layer: Layer = Layer.TERRESTRIAL,
    sample_interval_ms: float = 1.0,
) -> CsiDataset:
    """Decode a raw fixed-point capture into an un-normalized dataset.

    One record per timestep, in file order. Layer and timing metadata are not
    part of the binary stream; they come from the sidecar (see
    :func:`read_sidecar`) or from the keyword arguments.
    """
    return _dataset(_capture_source([(path, fmt, layer, sample_interval_ms)]))


def _capture_rows(path, fmt: FixedPointFormat, sample_interval_ms: float) -> int:
    """Records in a capture file, once its length and sample interval pass their checks."""
    size = Path(path).stat().st_size
    if size == 0:
        raise CaptureError(f"{path}: empty capture file")
    if size % fmt.bytes_per_record != 0:
        raise CaptureError(
            f"{path}: length {size} is not a multiple of the "
            f"{fmt.bytes_per_record}-byte record size for M={fmt.m_antennas} "
            "(truncated file or wrong antenna count)"
        )
    _check_interval(path, sample_interval_ms)
    return size // fmt.bytes_per_record


def _check_interval(path, sample_interval_ms: float) -> None:
    if not (math.isfinite(sample_interval_ms) and sample_interval_ms > 0):
        raise CaptureError(
            f"{path}: sample_interval_ms must be finite and positive, got {sample_interval_ms}"
        )


def _capture_source(captures: Iterable[tuple]) -> tuple:
    """(path, format, layer, interval) captures as one block source; ids run 0.. across them.

    A source is (M, (ids, layer codes, timesteps), blocks): ``blocks()``
    yields the (N, M) rows as new (B, M) blocks, in row order, and yields
    the same bits each time it is called. Every capture is checked before
    any is decoded.
    """
    plan = [(path, fmt, layer, interval, _capture_rows(path, fmt, interval))
            for path, fmt, layer, interval in captures]
    m = plan[0][1].m_antennas
    for path, fmt, _, _, _ in plan:
        if fmt.m_antennas != m:
            raise ValueError(f"captures disagree on antenna count: {path} has M={fmt.m_antennas}, "
                             f"but the first capture {plan[0][0]} has M={m}")
    columns = _columns([(layer, rows, interval) for _, _, layer, interval, rows in plan])
    return m, columns, functools.partial(_decoded_blocks, plan)


def _columns(parts: list[tuple]) -> tuple:
    """A source's (ids, layer codes, timesteps) of consecutive (layer, rows, interval) parts."""
    codes = np.concatenate([np.full(rows, layer.code, dtype=np.int8) for layer, rows, _ in parts])
    timesteps = np.concatenate([np.round(np.arange(rows) * interval).astype(np.int64)
                                for _, rows, interval in parts])
    return np.arange(len(codes), dtype=np.int64), codes, timesteps


def _decoded_blocks(plan: list[tuple]) -> Iterator[np.ndarray]:
    """The captures' blocks (see ``_capture_source``), ``_ROW_BLOCK`` rows at a time.

    Interleaved int16 I, Q samples are scaled to float64 and viewed as
    complex128 rows, which have the memory layout of interleaved float64 pairs.
    """
    for path, fmt, _, _, rows in plan:
        with open(path, "rb") as fh:
            for start in range(0, rows, _ROW_BLOCK):
                count = min(_ROW_BLOCK, rows - start)
                samples = np.frombuffer(fh.read(count * fmt.bytes_per_record), fmt.dtype)
                scaled = np.divide(samples, float(1 << fmt.frac_bits), dtype=np.float64)
                yield scaled.view(np.complex128).reshape(count, fmt.m_antennas)


def encode_csi_binary(dataset: CsiDataset, fmt: FixedPointFormat | None = None) -> bytes:
    """Encode a dataset to the raw fixed-point layout.

    Components are rounded to the nearest representable value; magnitudes at
    or beyond full scale raise instead of saturating so that decode/encode
    round-trips stay exact.
    """
    if fmt is None:
        fmt = FixedPointFormat(m_antennas=dataset.m_antennas)
    if fmt.m_antennas != dataset.m_antennas:
        raise CaptureError(
            f"format M={fmt.m_antennas} does not match dataset M={dataset.m_antennas}"
        )
    return b"".join(_encoded_blocks(dataset.channels, fmt))


def _write_encoded(fh: BinaryIO, channels: np.ndarray, fmt: FixedPointFormat) -> None:
    """Write the bytes ``encode_csi_binary`` gives for these gains, a block at a time."""
    fh.writelines(_encoded_blocks(channels, fmt))


def _encoded_blocks(channels: np.ndarray, fmt: FixedPointFormat) -> Iterator[np.ndarray]:
    """These gains' fixed-point encoding, as (B, 2M) blocks made as each is reached."""
    scale = float(1 << fmt.frac_bits)
    for block in _row_blocks(channels):
        scaled = np.ascontiguousarray(block).view(np.float64) * scale  # I, Q interleaved
        np.round(scaled, out=scaled)
        if scaled.max() > 32767 or scaled.min() < -32768:
            raise ValueError(
                "gain component outside the representable fixed-point range; "
                "normalize or rescale the dataset before encoding"
            )
        yield scaled.astype(fmt.dtype)


def sidecar_text(
    fmt: FixedPointFormat,
    layer: Layer,
    *,
    altitude_m: float | None = None,
    sample_interval_ms: float = 1.0,
    extra: dict | None = None,
) -> str:
    """Render the flat key-value metadata of a capture binary; a float reads back exactly.

    An ``extra`` key that repeats a key written here raises ValueError, as
    :func:`read_sidecar` would on reading it.
    """
    fields = {
        "m_antennas": fmt.m_antennas,
        "frac_bits": fmt.frac_bits,
        "byteorder": "little" if fmt.little_endian else "big",
        "layer": layer.value,
        "sample_interval_ms": _float_text(sample_interval_ms),
    }
    if altitude_m is not None:
        fields["altitude_m"] = _float_text(altitude_m)
    for key, value in (extra or {}).items():
        if key in fields:
            raise ValueError(f"extra key {key!r} repeats a key the sidecar writes")
        fields[key] = _float_text(value) if isinstance(value, float) else value
    return "".join(f"{key} = {value}\n" for key, value in fields.items())


def _float_text(value: float) -> str:
    """``value`` as ``:g`` writes it when that reads back as ``value``, else its exact repr."""
    short = f"{value:g}"
    return short if float(short) == value else repr(float(value))


def _text_lines(path) -> list[str]:
    """The lines of a UTF-8 text file, ended only by LF, CR LF or CR; a bad byte names its line."""
    lines = []  # no UTF-8 character holds an LF or CR byte, so lines split before decoding
    for lineno, line in enumerate(Path(path).read_bytes().splitlines(), 1):
        try:
            lines.append(line.decode("utf-8"))
        except UnicodeDecodeError as exc:
            raise ValueError(f"{path}:{lineno}: not UTF-8 text: {exc}") from None
    return lines


def _parse_keyvalues(path, casters: Mapping[str, Callable], strict: bool = False) -> dict:
    """Read a flat UTF-8 ``key = value`` file (``#`` comments), casting the keys ``casters`` names.

    ``strict`` rejects every other key. A key set twice is rejected, and
    every error names the file and line.
    """
    values, first_lines = {}, {}
    for lineno, line in enumerate(_text_lines(path), 1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        key, eq, value = (part.strip() for part in line.partition("="))
        if not eq:
            raise ValueError(f"{path}:{lineno}: expected 'key = value', got {line!r}")
        if key in first_lines:
            raise ValueError(f"{path}:{lineno}: {key!r} is set again; line {first_lines[key]} "
                             "set it first")
        first_lines[key] = lineno
        if key in casters:
            try:
                value = casters[key](value)
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: bad value for {key!r}: {exc}") from None
        elif strict:
            raise ValueError(f"{path}:{lineno}: unknown config key {key!r}")
        values[key] = value
    return values


_SIDECAR_CASTERS = {
    "m_antennas": int, "frac_bits": int, "layer": Layer, "sample_interval_ms": float,
}


def read_sidecar(path) -> tuple[FixedPointFormat, Layer, float]:
    """Parse a capture sidecar into (format, layer, sample interval in ms)."""
    try:
        values = _parse_keyvalues(path, _SIDECAR_CASTERS)
    except ValueError as exc:
        raise CaptureError(str(exc)) from None
    if "m_antennas" not in values:
        raise CaptureError(f"{path}: sidecar is missing m_antennas")
    byteorder = values.get("byteorder", "little")
    if byteorder not in ("little", "big"):
        raise CaptureError(f"{path}: byteorder must be 'little' or 'big', got {byteorder!r}")
    try:
        fmt = FixedPointFormat(
            values["m_antennas"], values.get("frac_bits", 15), byteorder == "little"
        )
    except ValueError as exc:
        raise CaptureError(f"{path}: {exc}") from None
    interval = values.get("sample_interval_ms", 1.0)
    _check_interval(path, interval)
    return fmt, values.get("layer", Layer.TERRESTRIAL), interval


def load_capture(bin_path, sidecar_path=None) -> CsiDataset:
    """Load one capture binary with metadata from its sidecar.

    The sidecar defaults to the binary path with a ``.cfg`` suffix appended.
    """
    fmt, layer, interval = read_sidecar(_sidecar_of(bin_path, sidecar_path))
    return load_csi_binary(bin_path, fmt, layer=layer, sample_interval_ms=interval)


def _sidecar_of(bin_path, sidecar_path) -> Path:
    """The given sidecar, or by default the binary path with ``.cfg`` appended, if it exists."""
    if sidecar_path is not None:
        return sidecar_path
    bin_path = Path(bin_path)
    default = bin_path.with_suffix(bin_path.suffix + ".cfg")
    if not default.exists():
        raise CaptureError(f"{default}: no such file (the default sidecar of capture {bin_path})")
    return default


def merge_datasets(datasets: Sequence[CsiDataset]) -> CsiDataset:
    """Concatenate datasets (e.g. one capture per layer) into one pool.

    Records are renumbered sequentially so ids stay unique. Normalization
    metadata is dropped; normalize the merged pool afterwards.
    """
    if not datasets:
        raise ValueError("nothing to merge")
    m = datasets[0].m_antennas
    if any(d.m_antennas != m for d in datasets):
        raise ValueError("datasets disagree on antenna count")
    channels = np.concatenate([d.channels for d in datasets])
    return CsiDataset._of(m, channels, np.arange(len(channels), dtype=np.int64),
                          np.concatenate([d.layer_codes for d in datasets]),
                          np.concatenate([d.timesteps_ms for d in datasets]))


# ---------------------------------------------------------------------------
# Synthetic two-layer generator
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ScenarioConfig:
    """Geometry and fading parameters for the synthetic generator.

    The base-station array is a vertical m_rows x m_cols planar array facing
    the user trajectories. Each layer is one straight constant-altitude pass
    parallel to the array face, sampled every ``sample_interval_ms``.
    """

    m_rows: int = 8
    m_cols: int = 8
    carrier_hz: float = 2.61e9
    element_spacing_wavelengths: float = 0.5
    bs_height_m: float = 11.0
    trajectory_length_m: float = 42.48
    trajectory_speed_mps: float = 1.5
    sample_interval_ms: float = 1.0
    layer_altitudes_m: tuple[float, float] = (8.0, 24.0)  # (terrestrial, aerial)
    standoff_distance_m: float = 30.0  # horizontal array-to-trajectory distance
    rician_k_db: tuple[float, float] = (3.0, 20.0)  # (terrestrial, aerial)
    seed: int = 0

    def __post_init__(self):
        positive = {
            "m_rows": self.m_rows,
            "m_cols": self.m_cols,
            "carrier_hz": self.carrier_hz,
            "element_spacing_wavelengths": self.element_spacing_wavelengths,
            "bs_height_m": self.bs_height_m,
            "trajectory_length_m": self.trajectory_length_m,
            "trajectory_speed_mps": self.trajectory_speed_mps,
            "sample_interval_ms": self.sample_interval_ms,
            "standoff_distance_m": self.standoff_distance_m,
        }
        for name, value in positive.items():
            if not 0 < value < math.inf:  # also false for NaN
                raise ValueError(f"{name} must be finite and strictly positive, got {value}")
        if not all(0 < a < math.inf for a in self.layer_altitudes_m):
            raise ValueError(
                f"layer_altitudes_m must be finite and strictly positive, got {self.layer_altitudes_m}"
            )
        if self.layer_altitudes_m[0] == self.layer_altitudes_m[1]:
            raise ValueError("layer altitudes must be distinct")
        # +inf is valid: it switches the diffuse term off
        if not all(k > -math.inf for k in self.rician_k_db):
            raise ValueError(f"rician_k_db must not be NaN or -inf, got {self.rician_k_db}")
        try:
            dataset_bytes = 2.0 * self.samples_per_layer * (self.m_antennas * 16 + 17 + 9)
        except (ZeroDivisionError, OverflowError):  # a step of 0.0, or a count past float range
            dataset_bytes = math.inf
        if dataset_bytes > _MAX_DATASET_BYTES:
            raise ValueError(
                f"a run holds {dataset_bytes / 2**30:.4g} GiB of the scenario's gains and columns, "
                f"over the {_MAX_DATASET_BYTES / 2**30:.0f} GiB bound: lower m_rows, m_cols or "
                "trajectory_length_m, or raise trajectory_speed_mps or sample_interval_ms"
            )

    @property
    def m_antennas(self) -> int:
        return self.m_rows * self.m_cols

    @property
    def wavelength_m(self) -> float:
        return SPEED_OF_LIGHT / self.carrier_hz

    @property
    def samples_per_layer(self) -> int:
        step = self.trajectory_speed_mps * self.sample_interval_ms / 1000.0
        # epsilon guards grid arithmetic when length is an exact multiple of the step
        return int(math.floor(self.trajectory_length_m / step + 1e-9)) + 1


def element_positions(config: ScenarioConfig) -> np.ndarray:
    """(M, 3) element coordinates in meters, row-major over the array face.

    x runs horizontally along the trajectory direction, y toward the users,
    z up; the array sits in the x-z plane centered at (0, 0, bs_height_m).
    """
    d = config.element_spacing_wavelengths * config.wavelength_m
    cols = (np.arange(config.m_cols) - (config.m_cols - 1) / 2.0) * d
    rows = (np.arange(config.m_rows) - (config.m_rows - 1) / 2.0) * d
    pos = np.zeros((config.m_rows, config.m_cols, 3))
    pos[:, :, 0] = cols[None, :]
    pos[:, :, 2] = config.bs_height_m + rows[:, None]
    return pos.reshape(-1, 3)


def _along_pass(config: ScenarioConfig, start: int, stop: int) -> np.ndarray:
    """x of a pass's samples start..stop-1; each value does not depend on the range."""
    step = config.trajectory_speed_mps * config.sample_interval_ms / 1000.0
    return -config.trajectory_length_m / 2.0 + step * np.arange(start, stop)


def generate_synthetic(config: ScenarioConfig) -> CsiDataset:
    """Generate an un-normalized two-layer dataset from the scenario geometry.

    Per sample, the channel is the exact spherical-wave LOS term (free-space
    amplitude, phase -2*pi*d/lambda from the per-element path length) plus a
    diffuse circular-Gaussian term whose power is LOS power / K for the
    layer's Rician K-factor. K of +inf disables the diffuse term. Deterministic
    for a fixed seed.

    The rows are ``_generated_source``'s blocks, copied into one (N, M)
    matrix; a sweep's pool build keeps only the pool's rows of each block.
    """
    return _dataset(_generated_source(config))


def _generated_source(config: ScenarioConfig) -> tuple:
    """``generate_synthetic``'s rows as a block source (see ``_capture_source``)."""
    parts = [(layer, config.samples_per_layer, config.sample_interval_ms) for layer in Layer]
    return config.m_antennas, _columns(parts), functools.partial(_generated_blocks, config)


def _dataset(source: tuple) -> CsiDataset:
    """The un-normalized dataset of a block source, its blocks copied into one matrix."""
    m, columns, blocks = source
    channels = np.empty((len(columns[0]), m), dtype=np.complex128)
    stop = 0
    for block in blocks():
        start, stop = stop, stop + len(block)
        channels[start:stop] = block
    return CsiDataset._of(m, channels, *columns)


def _generated_blocks(config: ScenarioConfig) -> Iterator[np.ndarray]:
    """``generate_synthetic``'s blocks (see ``_capture_source``).

    Each layer builds its rows in blocks of ``_ROW_BLOCK``, with the same
    stream and the same bits as one whole-array pass, without its full-size
    temporaries. The stream draws the layer's real Gaussian parts first,
    block by block, and spills them to an unnamed temporary file (n * M * 8
    bytes, 14.5 MB a layer at the default, in ``tempfile``'s directory:
    ``TMPDIR`` if it is usable); each block then reads its real parts back
    and draws its imaginary parts from the stream. numpy draws normals one at
    a time from the bit generator, so chunked draws continue one stream
    (``test_pool_build`` guards it), and each normal is drawn once. The
    spilled parts sit in the page cache, not in the process's RSS, and the
    file is gone once the layer is done or the generator is closed.

    A block is built in real arithmetic, straight into the parts of a new
    complex block, with the bits of ``amps * np.exp(-2j * np.pi * dists / lam)
    + scale * (real + 1j * imag)``: numpy divides a complex by a real as a
    multiply by ``1 / lam``, and libm's ``cexp(iy)`` is ``sincos(y)``, as
    numpy's ``cos`` and ``sin`` are (``test_csi`` guards the phase).
    """
    rng = np.random.default_rng(config.seed)
    elems = element_positions(config)
    lam = config.wavelength_m

    n, m = config.samples_per_layer, config.m_antennas
    # one block's distances (then phases, then real parts read back),
    # amplitudes and imaginary draws (and the real parts as they are spilled),
    # reused
    buffers = np.empty((3, min(n, _ROW_BLOCK), m))
    layer_plan = zip(
        (Layer.TERRESTRIAL, Layer.AERIAL), config.layer_altitudes_m, config.rician_k_db
    )
    for layer, altitude, k_db in layer_plan:
        # a pass is straight at constant y and z: their squares are one (M,) row each
        dy2, dz2 = np.square(np.array([[config.standoff_distance_m], [altitude]])
                             - elems[:, 1:].T)
        k_lin = 10.0 ** (k_db / 10.0)
        try:
            spill = tempfile.TemporaryFile()
        except OSError as exc:  # its message names a random file that was never made
            raise OSError(f"temporary directory {tempfile.gettempdir()} is missing or "
                          f"unwritable: {exc.strerror}") from exc
        with spill:
            for start in range(0, n, _ROW_BLOCK):
                spill.write(rng.standard_normal(out=buffers[2, :min(_ROW_BLOCK, n - start)]))
            spill.seek(0)
            for start in range(0, n, _ROW_BLOCK):
                x = _along_pass(config, start, min(start + _ROW_BLOCK, n))
                dists, amps, imag = buffers[:, :len(x)]
                # squares summed x, y, z in turn, as np.linalg.norm does, bit
                # for bit, without its (B, M, 3) temporary
                np.square(np.subtract(x[:, None], elems[:, 0], out=dists), out=dists)
                dists += dy2
                dists += dz2
                np.sqrt(dists, out=dists)  # (B, M)
                np.divide(lam, np.multiply(dists, 4.0 * np.pi, out=amps), out=amps)
                phase = np.multiply(np.multiply(dists, -2.0 * np.pi, out=dists), 1.0 / lam,
                                    out=dists)
                gains = np.empty((len(x), m), dtype=np.complex128)
                re, im = gains.real, gains.imag
                np.multiply(np.cos(phase, out=re), amps, out=re)
                np.multiply(np.sin(phase, out=im), amps, out=im)
                diffuse_power = np.mean(np.square(amps, out=amps), axis=1) / k_lin  # 0 when K=inf
                scale = np.sqrt(diffuse_power / 2.0)[:, None]
                # the phases are spent: their buffer takes the block's real parts
                read = spill.readinto(dists)
                if read != dists.nbytes:  # the file lost its tail: dists holds stale values
                    raise OSError(f"generator spill file ended early: read {read} of "
                                  f"{dists.nbytes} bytes of a {layer.value} block at row {start}")
                re += np.multiply(scale, dists, out=dists)
                im += np.multiply(scale, rng.standard_normal(out=imag), out=imag)
                yield gains


# ---------------------------------------------------------------------------
# Normalization and pool subsampling
# ---------------------------------------------------------------------------

def normalize_to_snr(dataset: CsiDataset, snr_db: float) -> CsiDataset:
    """Rescale all gains by one global factor so mean ||h||^2 over records is 1.

    With unit transmit power this makes the dataset-average SNR equal to
    ``snr_db``; the implied linear noise power 10^(-snr_db/10) is recorded.
    Re-applying is a no-op up to floating-point roundoff. This is the streamed
    pool build over the dataset's own row blocks, keeping every row.
    """
    columns = (dataset.ids, dataset.layer_codes, dataset.timesteps_ms)
    source = (dataset.m_antennas, columns, functools.partial(_row_blocks, dataset.channels))
    return _streamed_pool(source, snr_db, prior_scale=dataset.scale_applied)


class PoolPolicy(enum.Enum):
    """How to thin a layer's records down to a candidate pool."""

    STRIDE = "stride"
    SEEDED_UNIFORM = "uniform"


def subsample_pool(
    dataset: CsiDataset,
    per_layer_count: tuple[int | None, int | None],
    policy: PoolPolicy = PoolPolicy.STRIDE,
    seed: int = 0,
) -> CsiDataset:
    """Reduce the dataset to a fixed-size candidate pool per layer.

    ``per_layer_count`` is (terrestrial, aerial); None keeps a layer whole.
    STRIDE takes evenly spaced timesteps; SEEDED_UNIFORM draws without
    replacement from the given seed; a policy may be given by its value, e.g.
    "uniform". Record ids and order are preserved.
    """
    return dataset.take(_keep_rows(dataset.layer_codes, per_layer_count, policy, seed))


def _keep_rows(
    layer_codes: np.ndarray,
    per_layer_count: tuple[int | None, int | None],
    policy: PoolPolicy,
    seed: int,
) -> np.ndarray:
    """The (N,) mask of the rows ``subsample_pool`` keeps of rows with these layer codes."""
    if len(per_layer_count) != 2:
        raise ValueError("per_layer_count must be a (terrestrial, aerial) pair")
    policy = PoolPolicy(policy)  # a ValueError names a value that is no policy
    rng = None  # one stream across layers, made at the first uniform draw
    keep = np.zeros(len(layer_codes), dtype=bool)
    requested = dict(zip((Layer.TERRESTRIAL, Layer.AERIAL), per_layer_count))
    for layer, count in requested.items():
        positions = np.flatnonzero(layer_codes == layer.code)
        if count is None:
            keep[positions] = True
            continue
        if _integer(count, f"{layer.value} count") < 0:
            raise ValueError(f"requested {count} {layer.value} records; counts must be >= 0")
        population = len(positions)
        if count > population:
            raise ValueError(
                f"requested {count} {layer.value} records, only {population} available"
            )
        if not count:
            continue  # draws nothing, so a later layer's draw is unchanged
        if policy is PoolPolicy.STRIDE:
            ranks = np.floor(np.arange(count) * population / count).astype(int)
        else:
            rng = rng or np.random.default_rng(seed)
            ranks = rng.choice(population, size=count, replace=False)
        keep[positions[ranks]] = True
    return keep


def _streamed_pool(
    source: tuple,
    snr_db: float,
    per_layer_count: tuple[int | None, int | None] = (None, None),
    policy: PoolPolicy = PoolPolicy.STRIDE,
    seed: int = 0,
    prior_scale: float = 1.0,
) -> CsiDataset:
    """``subsample_pool(normalize_to_snr(dataset, snr_db), ...)`` of a block source, bit for bit.

    The counts are checked before any block is made. Each block adds its
    row energies to one (N,) vector and hands over its kept rows, and
    ``CsiDataset`` never sees the rest, so this checks them for NaN and Inf.
    The whole dataset's factor then scales the pool; its ``scale_applied``
    is ``prior_scale``, the scale the source's rows already carry, times
    that factor.
    """
    m, (ids, codes, timesteps), blocks = source
    keep = _keep_rows(codes, per_layer_count, policy, seed)
    energies = np.empty(len(keep))
    channels = np.empty((np.count_nonzero(keep), m), dtype=np.complex128)
    stop = kept = 0
    for block in blocks():
        rows = slice(stop, stop + len(block))
        stop = rows.stop
        # a row's energy, and so their mean, does not depend on the block it is in
        energies[rows] = np.sum(np.abs(block) ** 2, axis=1)
        if not np.isfinite(energies[rows]).all():  # as any NaN or Inf component makes them
            _check_finite(block)
        pool_rows = channels[kept:kept + np.count_nonzero(keep[rows])]
        if len(pool_rows) == len(block):  # a slice copy runs at twice np.compress's speed
            pool_rows[...] = block
        else:
            np.compress(keep[rows], block, axis=0, out=pool_rows)
        kept += len(pool_rows)
    if len(energies) == 0:
        raise ValueError("cannot normalize an empty dataset")
    mean_sq_norm = float(np.mean(energies))
    if mean_sq_norm == 0.0:
        raise ValueError("cannot normalize an all-zero dataset")
    if not math.isfinite(snr_db):
        raise ValueError(f"snr_db must be finite, got {snr_db}")
    scale = 1.0 / math.sqrt(mean_sq_norm)  # makes the mean row energy 1
    channels *= scale
    return CsiDataset._of(m, channels, ids[keep], codes[keep], timesteps[keep],
                          scale_applied=prior_scale * scale,
                          noise_power=10.0 ** (-snr_db / 10.0), snr_target_db=snr_db)
