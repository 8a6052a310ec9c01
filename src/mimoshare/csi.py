"""Channel data model: capture ingestion, synthetic two-layer generation, SNR normalization.

A dataset is an ordered pool of per-timestep channel vectors (one complex gain
per base-station antenna), each tagged with the user layer it belongs to.
Datasets come either from raw fixed-point capture files or from the built-in
geometric generator, and are normalized to a target average SNR before any
link-level evaluation.
"""

from __future__ import annotations

import enum
import hashlib
import math
from collections.abc import Sequence
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable, Mapping

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
    "trajectory_points",
    "normalize_to_snr",
    "subsample_pool",
]

SPEED_OF_LIGHT = 299_792_458.0  # m/s

# rows per block when generating channels or summing their energies: a
# block's temporaries stay small, and the bits do not depend on the size
_ROW_BLOCK = 256


class Layer(enum.Enum):
    """User layer a candidate location belongs to."""

    TERRESTRIAL = "terrestrial"
    AERIAL = "aerial"

    @property
    def code(self) -> int:
        """This layer's value in ``CsiDataset.layer_codes``: its declaration rank."""
        return list(Layer).index(self)


class CaptureError(ValueError):
    """Raised when a capture file does not match its declared binary format."""


def _as_channel(gains) -> np.ndarray:
    """Validate and coerce one channel vector to a read-only complex array."""
    h = np.asarray(gains, dtype=np.complex128)
    if h.ndim != 1 or h.shape[0] == 0:
        raise ValueError(f"channel vector must be 1-D and non-empty, got shape {h.shape}")
    if not np.all(np.isfinite(h)):
        raise ValueError("channel vector contains NaN or Inf components")
    if h.flags.writeable:
        h = h.copy()
        h.flags.writeable = False
    return h


@dataclass(frozen=True)
class CsiRecord:
    """One candidate user location: a timestamped channel snapshot."""

    index: int
    layer: Layer
    timestep_ms: int
    channel: np.ndarray  # (M,) complex gains across the BS antennas
    position: np.ndarray | None = None  # (3,) meters, when known

    def __post_init__(self):
        object.__setattr__(self, "channel", _as_channel(self.channel))
        if self.position is not None:
            object.__setattr__(self, "position", np.asarray(self.position, dtype=np.float64))


class _RecordView(Sequence):
    """A dataset's rows as :class:`CsiRecord` objects, each built when accessed."""

    def __init__(self, dataset: CsiDataset):
        self._dataset = dataset

    def __len__(self) -> int:
        return len(self._dataset)

    def __getitem__(self, pos):
        ds = self._dataset
        position = None if ds.positions is None else ds.positions[pos]
        return CsiRecord(int(ds.ids[pos]), list(Layer)[ds.layer_codes[pos]],
                         int(ds.timesteps_ms[pos]), ds.channels[pos], position)


@dataclass(frozen=True, init=False, eq=False)
class CsiDataset:
    """Ordered pool of channel records plus normalization metadata.

    Columnar: row p of each array belongs to the p-th record, and every array
    is read-only, so instances are immutable and safe to share across
    concurrent evaluations. ``CsiDataset(records, m_antennas, ...)`` builds
    one from :class:`CsiRecord` objects; ``records`` builds them back, one
    per access. ``noise_power`` is the linear noise variance implied by the
    target SNR, set by :func:`normalize_to_snr`; until then the dataset is
    un-normalized (``scale_applied`` 1, ``noise_power`` None).
    """

    m_antennas: int
    channels: np.ndarray  # (N, M) complex128
    ids: np.ndarray  # (N,) int64 record ids, unique, in any order
    layer_codes: np.ndarray  # (N,) int8 Layer.code values
    timesteps_ms: np.ndarray  # (N,) int64
    positions: np.ndarray | None  # (N, 3) meters; None unless every record has one
    scale_applied: float
    noise_power: float | None  # sigma^2, linear
    snr_target_db: float | None

    def __init__(self, records: Iterable[CsiRecord], m_antennas: int, scale_applied: float = 1.0,
                 noise_power: float | None = None, snr_target_db: float | None = None):
        records = tuple(records)
        for rec in records:
            if rec.channel.shape != (m_antennas,):
                raise ValueError(
                    f"record {rec.index}: channel length {rec.channel.shape[0]} "
                    f"does not match dataset m_antennas={m_antennas}"
                )
        positions = [r.position for r in records]
        self._set(
            m_antennas,
            np.array([r.channel for r in records], np.complex128).reshape(len(records), m_antennas),
            np.array([r.index for r in records], dtype=np.int64),
            np.array([r.layer.code for r in records], dtype=np.int8),
            np.array([r.timestep_ms for r in records], dtype=np.int64),
            np.array(positions) if records and all(p is not None for p in positions) else None,
            scale_applied, noise_power, snr_target_db,
        )

    @classmethod
    def _of(cls, *columns, **metadata) -> CsiDataset:
        """Array-built dataset: it takes ownership of the arrays and freezes them."""
        return cls.__new__(cls)._set(*columns, **metadata)

    def _set(self, m_antennas, channels, ids, layer_codes, timesteps_ms, positions=None,
             scale_applied=1.0, noise_power=None, snr_target_db=None) -> CsiDataset:
        if m_antennas <= 0:
            raise ValueError("m_antennas must be positive")
        if not np.isfinite(channels).all():
            raise ValueError("channel vector contains NaN or Inf components")
        id_order = np.argsort(ids, kind="stable")
        repeats = ids[id_order][1:][np.diff(ids[id_order]) == 0]
        if repeats.size:
            raise ValueError(f"duplicate record index {repeats[0]}")
        for array in (channels, ids, layer_codes, timesteps_ms, positions, id_order):
            if array is not None:
                array.flags.writeable = False
        self.__dict__.update(
            m_antennas=m_antennas, channels=channels, ids=ids, layer_codes=layer_codes,
            timesteps_ms=timesteps_ms, positions=positions, scale_applied=scale_applied,
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
            self.timesteps_ms[rows], None if self.positions is None else self.positions[rows],
            self.scale_applied, self.noise_power, self.snr_target_db,
        )

    def _rows_of(self, indices: Iterable[int]) -> np.ndarray:
        """Row positions of the given record ids; KeyError names an unknown id."""
        wanted = np.fromiter(indices, dtype=np.int64)
        ranks = np.searchsorted(self.ids, wanted, sorter=self._id_order)
        rows = self._id_order.take(ranks, mode="clip")
        unknown = wanted[self.ids[rows] != wanted]
        if unknown.size:
            raise KeyError(int(unknown[0]))
        return rows

    def channels_for(self, indices: Iterable[int]) -> np.ndarray:
        """Channels of the given record ids as a read-only (K, M) array."""
        channels = self.channels[self._rows_of(indices)]
        channels.flags.writeable = False
        return channels

    def layer_counts(self, indices: Iterable[int] | None = None) -> dict[Layer, int]:
        """Records per layer, in the whole dataset or among the given record ids."""
        codes = self.layer_codes if indices is None else self.layer_codes[self._rows_of(indices)]
        return dict(zip(Layer, np.bincount(codes, minlength=len(Layer)).tolist()))

    def fingerprint(self) -> str:
        """Short content hash covering ids, layers, timesteps and gains."""
        digest = hashlib.sha256()
        digest.update(f"M={self.m_antennas};".encode())
        names = [layer.value for layer in Layer]
        rows = zip(self.ids.tolist(), self.layer_codes.tolist(), self.timesteps_ms.tolist())
        for (index, code, timestep), channel in zip(rows, self.channels):
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
    data = Path(path).read_bytes()
    if len(data) == 0:
        raise CaptureError(f"{path}: empty capture file")
    if len(data) % fmt.bytes_per_record != 0:
        raise CaptureError(
            f"{path}: length {len(data)} is not a multiple of the "
            f"{fmt.bytes_per_record}-byte record size for M={fmt.m_antennas} "
            "(truncated file or wrong antenna count)"
        )
    _check_interval(path, sample_interval_ms)
    scale = float(1 << fmt.frac_bits)
    # interleaved float64 I, Q pairs are complex128's memory layout
    gains = (np.frombuffer(data, fmt.dtype) / scale).view(np.complex128).reshape(-1, fmt.m_antennas)
    steps = np.arange(gains.shape[0])
    codes = np.full(len(steps), layer.code, dtype=np.int8)
    return CsiDataset._of(fmt.m_antennas, gains, steps, codes,
                          np.round(steps * sample_interval_ms).astype(np.int64))


def _check_interval(path, sample_interval_ms: float) -> None:
    if not (math.isfinite(sample_interval_ms) and sample_interval_ms > 0):
        raise CaptureError(
            f"{path}: sample_interval_ms must be finite and positive, got {sample_interval_ms}"
        )


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
    scale = float(1 << fmt.frac_bits)
    quant = np.ascontiguousarray(dataset.channels).view(np.float64) * scale  # I, Q interleaved
    np.round(quant, out=quant)
    if quant.size and (quant.max() > 32767 or quant.min() < -32768):
        raise ValueError(
            "gain component outside the representable fixed-point range; "
            "normalize or rescale the dataset before encoding"
        )
    return quant.astype(fmt.dtype).tobytes()


def sidecar_text(
    fmt: FixedPointFormat,
    layer: Layer,
    *,
    altitude_m: float | None = None,
    sample_interval_ms: float = 1.0,
    extra: dict | None = None,
) -> str:
    """Render the flat key-value metadata accompanying a capture binary."""
    lines = [
        f"m_antennas = {fmt.m_antennas}",
        f"frac_bits = {fmt.frac_bits}",
        f"byteorder = {'little' if fmt.little_endian else 'big'}",
        f"layer = {layer.value}",
        f"sample_interval_ms = {sample_interval_ms:g}",
    ]
    if altitude_m is not None:
        lines.append(f"altitude_m = {altitude_m:g}")
    for key, value in (extra or {}).items():
        lines.append(f"{key} = {value}")
    return "\n".join(lines) + "\n"


def _parse_keyvalues(path, casters: Mapping[str, Callable], strict: bool = False) -> dict:
    """Read a flat ``key = value`` file (``#`` comments), casting the keys ``casters`` names.

    ``strict`` rejects every other key. Errors name the file and line.
    """
    values = {}
    for lineno, line in enumerate(Path(path).read_text().splitlines(), 1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        key, eq, value = (part.strip() for part in line.partition("="))
        if not eq:
            raise ValueError(f"{path}:{lineno}: expected 'key = value', got {line!r}")
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
    bin_path = Path(bin_path)
    if sidecar_path is None:
        sidecar_path = bin_path.with_suffix(bin_path.suffix + ".cfg")
    fmt, layer, interval = read_sidecar(sidecar_path)
    return load_csi_binary(bin_path, fmt, layer=layer, sample_interval_ms=interval)


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
    positions = None
    if all(d.positions is not None for d in datasets):
        positions = np.concatenate([d.positions for d in datasets])
    return CsiDataset._of(m, channels, np.arange(len(channels), dtype=np.int64),
                          np.concatenate([d.layer_codes for d in datasets]),
                          np.concatenate([d.timesteps_ms for d in datasets]), positions)


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


def trajectory_points(config: ScenarioConfig, altitude_m: float) -> np.ndarray:
    """(N, 3) sampling positions along one constant-altitude pass."""
    step = config.trajectory_speed_mps * config.sample_interval_ms / 1000.0
    n = config.samples_per_layer
    x = -config.trajectory_length_m / 2.0 + step * np.arange(n)
    pts = np.empty((n, 3))
    pts[:, 0] = x
    pts[:, 1] = config.standoff_distance_m
    pts[:, 2] = altitude_m
    return pts


def generate_synthetic(config: ScenarioConfig) -> CsiDataset:
    """Generate an un-normalized two-layer dataset from the scenario geometry.

    Per sample, the channel is the exact spherical-wave LOS term (free-space
    amplitude, phase -2*pi*d/lambda from the per-element path length) plus a
    diffuse circular-Gaussian term whose power is LOS power / K for the
    layer's Rician K-factor. K of +inf disables the diffuse term. Deterministic
    for a fixed seed.

    Each layer draws all its real Gaussian parts, then fills the channel
    matrix in blocks of rows, drawing each block's imaginary parts as it goes:
    the same stream and the same bits as one whole-array pass, without its
    full-size temporaries.
    """
    rng = np.random.default_rng(config.seed)
    elems = element_positions(config)
    lam = config.wavelength_m

    n, m = config.samples_per_layer, config.m_antennas
    channels = np.empty((2 * n, m), dtype=np.complex128)
    positions = np.empty((2 * n, 3))
    layer_plan = zip(
        (Layer.TERRESTRIAL, Layer.AERIAL), config.layer_altitudes_m, config.rician_k_db
    )
    for layer, altitude, k_db in layer_plan:
        offset = layer.code * n
        pts = trajectory_points(config, altitude)
        positions[offset:offset + n] = pts
        k_lin = 10.0 ** (k_db / 10.0)
        real = rng.standard_normal((n, m))
        for start in range(0, n, _ROW_BLOCK):
            block = pts[start:start + _ROW_BLOCK]
            rows = len(block)
            # squares summed x, y, z in turn, as np.linalg.norm does, bit for
            # bit, without its (B, M, 3) temporary
            dists = np.zeros((rows, m))
            for axis in range(3):
                dists += np.square(block[:, None, axis] - elems[None, :, axis])
            np.sqrt(dists, out=dists)  # (B, M)
            amps = lam / (4.0 * np.pi * dists)
            gains = np.multiply(amps, np.exp(-2j * np.pi * dists / lam),
                                out=channels[offset + start:offset + start + rows])
            diffuse_power = np.mean(amps**2, axis=1) / k_lin  # (B,) ; 0 when K=inf
            noise = real[start:start + rows] + 1j * rng.standard_normal((rows, m))
            gains += np.sqrt(diffuse_power / 2.0)[:, None] * noise
    steps = np.tile(np.arange(n), 2)
    codes = np.repeat(np.array([layer.code for layer in Layer], dtype=np.int8), n)
    return CsiDataset._of(m, channels, np.arange(2 * n), codes,
                          np.round(steps * config.sample_interval_ms).astype(np.int64), positions)


# ---------------------------------------------------------------------------
# Normalization and pool subsampling
# ---------------------------------------------------------------------------

def _snr_scale(dataset: CsiDataset) -> float:
    """The global factor that makes mean ||h||^2 over the records 1.

    Row energies are summed block by block into one (N,) vector, whose mean
    has the bits of the whole-array sum's.
    """
    if len(dataset) == 0:
        raise ValueError("cannot normalize an empty dataset")
    gains = dataset.channels
    energies = np.empty(len(gains))
    for start in range(0, len(gains), _ROW_BLOCK):
        block = gains[start:start + _ROW_BLOCK]
        energies[start:start + len(block)] = np.sum(np.abs(block) ** 2, axis=1)
    mean_sq_norm = float(np.mean(energies))
    if mean_sq_norm == 0.0:
        raise ValueError("cannot normalize an all-zero dataset")
    return 1.0 / math.sqrt(mean_sq_norm)


def _scaled(dataset: CsiDataset, scale: float, snr_db: float) -> CsiDataset:
    """The dataset with every gain times ``scale``, normalized to ``snr_db``."""
    if not math.isfinite(snr_db):
        raise ValueError(f"snr_db must be finite, got {snr_db}")
    return CsiDataset._of(
        dataset.m_antennas, dataset.channels * scale, dataset.ids, dataset.layer_codes,
        dataset.timesteps_ms, dataset.positions,
        scale_applied=dataset.scale_applied * scale,
        noise_power=10.0 ** (-snr_db / 10.0),
        snr_target_db=snr_db,
    )


def normalize_to_snr(dataset: CsiDataset, snr_db: float) -> CsiDataset:
    """Rescale all gains by one global factor so mean ||h||^2 over records is 1.

    With unit transmit power this makes the dataset-average SNR equal to
    ``snr_db``; the implied linear noise power 10^(-snr_db/10) is recorded.
    Re-applying is a no-op up to floating-point roundoff. Row energies are
    summed in blocks of rows, with the same bits as a whole-array sum.
    """
    return _scaled(dataset, _snr_scale(dataset), snr_db)


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
    replacement from the given seed. Record ids and order are preserved.
    """
    if len(per_layer_count) != 2:
        raise ValueError("per_layer_count must be a (terrestrial, aerial) pair")
    rng = np.random.default_rng(seed)
    keep = np.zeros(len(dataset), dtype=bool)
    requested = dict(zip((Layer.TERRESTRIAL, Layer.AERIAL), per_layer_count))
    for layer, count in requested.items():
        positions = np.flatnonzero(dataset.layer_codes == layer.code)
        if count is None:
            keep[positions] = True
            continue
        if count < 0:
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
            ranks = rng.choice(population, size=count, replace=False)
        keep[positions[ranks]] = True
    return dataset.take(keep)
