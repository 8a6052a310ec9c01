"""Command-line entry point: dataset generation/ingestion, sweeps, CSV and summary output.

Every option lives in a flat key-value config file and can be overridden by
the command-line flag of the same name. Output files are written atomically
(write-then-rename); any failure exits nonzero with a one-line diagnostic and
leaves no partial outputs behind.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import os
import sys
from pathlib import Path
from typing import BinaryIO, Callable

import numpy as np

from .csi import (
    CsiDataset,
    FixedPointFormat,
    Layer,
    PoolPolicy,
    ScenarioConfig,
    _capture_source,
    _fingerprint,
    _generated_source,
    _parse_keyvalues,
    _sidecar_of,
    _streamed_pool,
    _write_encoded,
    read_sidecar,
    sidecar_text,
)
from .sched import SelectionMethod, SusParams
from .sweeps import (
    _METHODS,
    _SWEEP_METHODS,
    SweepTable,
    _RangeError,
    _sweep_ranges,
    find_peak,
    max_users_for_min_se,
    sweep_layer_grid,
    sweep_total_users,
)

__all__ = ["main"]

_SCENARIO = ScenarioConfig()


def _comma_list(text: str) -> list[str]:
    return [part.strip() for part in text.split(",") if part.strip()]


def _list_of(caster):
    return lambda text: [caster(part) for part in _comma_list(text)]


def _flag(key: str) -> str:
    return "--" + key.replace("_", "-")


# ZF serves at most M users, and one 256-row block at M = 2**20 is already
# 4 GiB, so no sweep can use a longer range; the cap keeps a typo such as
# 1:1000000000 from materializing its values before any bound is checked
_MAX_RANGE_SPAN = 2**20


def _range_part(part: str) -> range:
    if ":" not in part:
        return range(int(part), int(part) + 1)
    if part.count(":") > 1:
        raise ValueError(f"range {part!r} has more than one ':'")
    lo, hi = (int(v) for v in part.split(":"))
    if hi < lo:
        raise ValueError(f"descending range {part!r}")
    if hi - lo + 1 > _MAX_RANGE_SPAN:
        raise ValueError(f"range {part!r} spans {hi - lo + 1} values, more than {_MAX_RANGE_SPAN}")
    return range(lo, hi + 1)


def _int_range(text: str) -> list[int]:
    """Sorted distinct ints of a comma-separated list of ``n`` and ``lo:hi`` parts."""
    values = sorted(set().union(*map(_range_part, _comma_list(text))))
    if not values:
        raise ValueError(f"empty range {text!r}")
    return values


def _checked(caster, ok, rule: str):
    """``caster``, then a ValueError naming ``rule`` unless ``ok(value)`` holds."""

    def cast(text):
        value = caster(text)
        if not ok(value):  # NaN fails every comparison
            raise ValueError(f"must be {rule}; got {value}")
        return value

    return cast


_POSITIVE_INT = _checked(int, lambda v: v >= 1, ">= 1")
_POSITIVE = _checked(float, lambda v: 0 < v < math.inf, "finite and > 0")
_FINITE = _checked(float, math.isfinite, "finite")
# +inf is a valid Rician K-factor: it switches the diffuse term off
_K_FACTOR_DB = _checked(float, lambda v: v > -math.inf, "> -inf")


def _sweep_method(text: str) -> SelectionMethod:
    method = SelectionMethod(text)
    if method not in _SWEEP_METHODS:
        supported = " and ".join(sorted(m.value for m in _SWEEP_METHODS))
        raise ValueError(f"sweep methods are {supported}; got {text!r}")
    return method


def _pool_count(text) -> int | None:
    """A per-layer pool size; -1 keeps the whole layer and reads as None."""
    count = int(text)
    if count < -1:
        raise ValueError(f"must be >= 0, or -1 to keep the whole layer; got {count}")
    return None if count == -1 else count


# key -> (caster, default, help); config-file keys and CLI flags share names.
# _merge_config casts every value, so commands read typed values from cfg.
_CONFIG_SPEC: dict[str, tuple] = {
    "m_rows": (_POSITIVE_INT, _SCENARIO.m_rows, "antenna rows of the BS array"),
    "m_cols": (_POSITIVE_INT, _SCENARIO.m_cols, "antenna columns of the BS array"),
    "carrier_hz": (_POSITIVE, _SCENARIO.carrier_hz, "carrier frequency in Hz"),
    "element_spacing_wavelengths":
        (_POSITIVE, _SCENARIO.element_spacing_wavelengths, "element spacing in wavelengths"),
    "bs_height_m": (_POSITIVE, _SCENARIO.bs_height_m, "array center height in meters"),
    "trajectory_length_m":
        (_POSITIVE, _SCENARIO.trajectory_length_m, "trajectory length in meters"),
    "trajectory_speed_mps": (_POSITIVE, _SCENARIO.trajectory_speed_mps, "trajectory speed in m/s"),
    "sample_interval_ms":
        (_POSITIVE, _SCENARIO.sample_interval_ms, "sampling interval in milliseconds"),
    "altitude_terrestrial_m":
        (_POSITIVE, _SCENARIO.layer_altitudes_m[0], "terrestrial-layer altitude in meters"),
    "altitude_aerial_m":
        (_POSITIVE, _SCENARIO.layer_altitudes_m[1], "aerial-layer altitude in meters"),
    "standoff_distance_m": (_POSITIVE, _SCENARIO.standoff_distance_m,
                            "horizontal array-to-trajectory distance in meters"),
    "rician_k_terrestrial_db":
        (_K_FACTOR_DB, _SCENARIO.rician_k_db[0], "terrestrial Rician K-factor in dB"),
    "rician_k_aerial_db": (_K_FACTOR_DB, _SCENARIO.rician_k_db[1], "aerial Rician K-factor in dB"),
    "snr_db": (_FINITE, 20.0, "dataset-average SNR target in dB"),
    "alpha": (_checked(float, lambda v: 0 < v <= 1, "in (0, 1]"), SusParams().alpha,
              "SUS orthogonality threshold in (0, 1]"),
    "seed": (_checked(int, lambda v: v >= 0, ">= 0"), 0,
             "master seed for generation, pools and random scheduling"),
    "trials": (_POSITIVE_INT, 20, "random-scheduling trials per schedule size"),
    "pool_terrestrial": (_pool_count, 36, "terrestrial candidate-pool size (-1 keeps all)"),
    "pool_aerial": (_pool_count, 28, "aerial candidate-pool size (-1 keeps all)"),
    "pool_policy": (PoolPolicy, "stride", "pool subsampling policy: stride or uniform"),
    "k_range": (_int_range, "1:64", "total-user sweep range, e.g. 1:64"),
    "methods": (_checked(_list_of(_sweep_method), bool, "a non-empty list"), "random,sus",
                "comma-separated sweep methods"),
    "ground_range": (_int_range, "0:36", "grid range of terrestrial users, e.g. 0:36"),
    "aerial_range": (_int_range, "0:28", "grid range of aerial users, e.g. 0:28"),
    "thresholds": (_list_of(_FINITE), "8", "comma-separated minimum individual-SE thresholds"),
    "csi": (_comma_list, "", "comma-separated capture binaries to ingest"),
    "format": (_comma_list, "", "comma-separated sidecars (default: <capture>.cfg)"),
    "out": (str, "out", "output directory"),
    "table": (str, "", "existing sweep.csv to summarize (report command)"),
}


def _merge_config(args: argparse.Namespace) -> dict:
    """Defaults, then the config file, then flags; every value cast by its spec caster."""
    cfg = {key: caster(default) for key, (caster, default, _) in _CONFIG_SPEC.items()}
    if args.config:
        casters = {key: spec[0] for key, spec in _CONFIG_SPEC.items()}
        cfg.update(_parse_keyvalues(args.config, casters, strict=True))
    for key, (caster, _, _) in _CONFIG_SPEC.items():
        override = getattr(args, key, None)
        if override is not None:
            try:
                cfg[key] = caster(override)
            except ValueError as exc:
                raise ValueError(f"{_flag(key)}: {exc}") from None
    return cfg


def _scenario_from(cfg: dict) -> ScenarioConfig:
    shared = {f.name: cfg[f.name] for f in dataclasses.fields(ScenarioConfig) if f.name in cfg}
    return ScenarioConfig(
        **shared,
        layer_altitudes_m=(cfg["altitude_terrestrial_m"], cfg["altitude_aerial_m"]),
        rician_k_db=(cfg["rician_k_terrestrial_db"], cfg["rician_k_aerial_db"]),
    )


def _source(cfg: dict) -> tuple:
    """Data source resolution: the block source of the named captures, else the generator."""
    if not cfg["csi"]:
        return _generated_source(_scenario_from(cfg))
    bins, sidecars = cfg["csi"], cfg["format"]
    if sidecars and len(sidecars) != len(bins):
        raise ValueError("number of --format sidecars must match --csi captures")
    sidecars = sidecars or [None] * len(bins)  # None: load_capture's <capture>.cfg default
    # each capture's sidecar is read once, just before its length is checked
    return _capture_source((path, *read_sidecar(_sidecar_of(path, sidecar)))
                           for path, sidecar in zip(bins, sidecars))


def _build_pool(cfg: dict, source: tuple) -> CsiDataset:
    """The sweep's pool, reduced from a resolved source's blocks."""
    per_layer = (cfg["pool_terrestrial"], cfg["pool_aerial"])
    return _streamed_pool(source, cfg["snr_db"], per_layer, cfg["pool_policy"], cfg["seed"])


def _write_outputs(out_dir: Path, files: dict[str, bytes | Callable[[BinaryIO], None]]) -> None:
    """Two-phase atomic write: check every target, stage every temp file, then rename all.

    A payload is bytes, or a writer that writes a file's bytes to the open
    temp file as it is staged.
    """
    for name in files:
        if (out_dir / name).is_dir():  # os.replace would fail after earlier renames
            raise IsADirectoryError(f"{out_dir / name}: output is a directory")
    out_dir.mkdir(parents=True, exist_ok=True)
    staged: list[tuple[Path, Path]] = []
    try:
        for name, payload in files.items():
            tmp = out_dir / f".{name}.tmp-{os.getpid()}"
            staged.append((tmp, out_dir / name))
            if isinstance(payload, bytes):
                tmp.write_bytes(payload)
            else:
                with tmp.open("wb") as fh:
                    payload(fh)
        for tmp, final in staged:
            os.replace(tmp, final)
    except BaseException:
        for tmp, _ in staged:
            tmp.unlink(missing_ok=True)
        raise


def _summary_text(table: SweepTable, thresholds: list[float]) -> str:
    lines = [f"sweep: {table.meta.get('sweep', 'unknown')}", f"rows: {len(table)}"]
    methods = {_METHODS[code] for code in table.method_codes.tolist()}
    for method in sorted(methods, key=lambda m: m.value):
        k_ground, k_aerial, peak_se = find_peak(table._only(method))
        lines.append(
            f"method={method.value}: peak sum_se={peak_se:.6g} bits/s/Hz at "
            f"k_total={k_ground + k_aerial} (k_ground={k_ground}, k_aerial={k_aerial})"
        )
        for threshold in thresholds:
            capacity = max_users_for_min_se(table, method, threshold)
            lines.append(
                f"method={method.value}: max users with mean individual SE >= "
                f"{threshold:.6g} bits/s/Hz: {capacity}"
            )
    for key in sorted(table.meta):
        lines.append(f"{key}={table.meta[key]}")
    return "\n".join(lines) + "\n"


def _meta_json(table_meta: dict, cfg: dict, command: str) -> bytes:
    # generate ignores captures; ingest and the sweeps read them when named
    mode = "ingest" if cfg["csi"] and command != "generate" else "generate"
    meta = {
        **table_meta,
        "command": command,
        "mode": mode,
        "snr_db": cfg["snr_db"],
        "alpha": cfg["alpha"],
        "seed": cfg["seed"],
    }
    return (json.dumps(meta, sort_keys=True, indent=2) + "\n").encode()


def _dataset_meta(m: int, codes: np.ndarray, fingerprint: str) -> dict:
    """The meta keys generate and ingest share, of a dataset with these layer codes."""
    counts = np.bincount(codes, minlength=len(Layer)).tolist()
    return {
        "m_antennas": m,
        "records_terrestrial": counts[Layer.TERRESTRIAL.code],
        "records_aerial": counts[Layer.AERIAL.code],
        "dataset_fingerprint": fingerprint,
    }


def _cmd_generate(cfg: dict) -> int:
    scenario = _scenario_from(cfg)
    # the whole dataset, generated and normalized without a raw copy
    dataset = _streamed_pool(_generated_source(scenario), cfg["snr_db"])
    out_dir = Path(cfg["out"])
    fmt = FixedPointFormat(m_antennas=dataset.m_antennas)
    counts = dataset.layer_counts()
    files: dict[str, bytes | Callable[[BinaryIO], None]] = {}
    start = 0  # each layer's rows are contiguous, so a slice takes them without a copy
    for layer, altitude in zip((Layer.TERRESTRIAL, Layer.AERIAL), scenario.layer_altitudes_m):
        rows = slice(start, start + counts[layer])
        start = rows.stop
        # encoded a block at a time as the file is staged: no encoded copy is held
        files[f"{layer.value}.bin"] = functools.partial(
            _write_encoded, channels=dataset.channels[rows], fmt=fmt
        )
        files[f"{layer.value}.bin.cfg"] = sidecar_text(
            fmt,
            layer,
            altitude_m=altitude,
            sample_interval_ms=scenario.sample_interval_ms,
            extra={"snr_db": cfg["snr_db"], "scale_applied": f"{dataset.scale_applied:.12g}"},
        ).encode()
    meta = _dataset_meta(dataset.m_antennas, dataset.layer_codes, dataset.fingerprint())
    files["meta.json"] = _meta_json(meta, cfg, "generate")
    _write_outputs(out_dir, files)
    print(f"wrote {counts[Layer.TERRESTRIAL]}+{counts[Layer.AERIAL]} records to {out_dir}")
    return 0


def _cmd_ingest(cfg: dict) -> int:
    if not cfg["csi"]:
        raise ValueError("no capture files given (set csi=... or --csi)")
    m, columns, blocks = source = _source(cfg)
    # a keep-none pool gives the whole dataset's factor without its matrix;
    # a second pass hashes each scaled block as it is read
    factor = _streamed_pool(source, cfg["snr_db"], (0, 0))
    fingerprint = _fingerprint(m, columns, (block * factor.scale_applied for block in blocks()))
    meta = {**_dataset_meta(m, columns[1], fingerprint), "scale_applied": factor.scale_applied,
            "noise_power": factor.noise_power}
    _write_outputs(Path(cfg["out"]), {"meta.json": _meta_json(meta, cfg, "ingest")})
    print(
        f"ingested {len(columns[0])} records ({meta['records_terrestrial']} terrestrial, "
        f"{meta['records_aerial']} aerial), fingerprint {meta['dataset_fingerprint']}"
    )
    return 0


def _cmd_sweep(cfg: dict, kind: str) -> int:
    params = SusParams(alpha=cfg["alpha"])
    keys = ("k_range",) if kind == "total" else ("ground_range", "aerial_range")
    source = _source(cfg)
    m, (_, codes, _), _ = source
    # each layer's pool population: its count, or its whole layer's for -1
    counts = (cfg["pool_terrestrial"], cfg["pool_aerial"])
    populations = tuple(np.count_nonzero(codes == layer.code) if count is None else count
                        for layer, count in zip(Layer, counts))
    try:
        _sweep_ranges(populations, m, **{key: cfg[key] for key in keys})
        pool = _build_pool(cfg, source)
        del source, codes  # the sweep holds none of the source's columns
        if kind == "total":
            table = sweep_total_users(pool, cfg["k_range"], methods=cfg["methods"],
                                      trials=cfg["trials"], seed=cfg["seed"], params=params)
        else:
            table = sweep_layer_grid(pool, cfg["ground_range"], cfg["aerial_range"],
                                     params=params, seed=cfg["seed"])
    except _RangeError as exc:
        raise ValueError(f"{', '.join(map(_flag, exc.keys))}: {exc}") from None
    files = {
        "sweep.csv": table.csv_text().encode(),
        # summarized from what sweep.csv holds, so report rebuilds the same lines
        "summary.txt": _summary_text(table._as_written(), cfg["thresholds"]).encode(),
        "meta.json": _meta_json(table.meta, cfg, f"sweep-{kind}"),
    }
    _write_outputs(Path(cfg["out"]), files)
    print(f"wrote {len(table)} rows to {Path(cfg['out']) / 'sweep.csv'}")
    return 0


def _cmd_report(cfg: dict) -> int:
    if not cfg["table"]:
        raise ValueError("report needs an input table (set table=... or --table)")
    summary = _summary_text(SweepTable.from_csv(cfg["table"]), cfg["thresholds"])
    _write_outputs(Path(cfg["out"]), {"summary.txt": summary.encode()})
    sys.stdout.write(summary)
    return 0


_COMMANDS = {
    "generate": _cmd_generate,
    "ingest": _cmd_ingest,
    "sweep-total": lambda cfg: _cmd_sweep(cfg, "total"),
    "sweep-grid": lambda cfg: _cmd_sweep(cfg, "grid"),
    "report": _cmd_report,
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mimoshare",
        description="Massive-MIMO terrestrial/aerial spectrum-sharing simulator",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command in _COMMANDS:
        p = sub.add_parser(command)
        p.add_argument("--config", default=None, help="flat key-value config file")
        for key, (_, default, help_text) in _CONFIG_SPEC.items():
            p.add_argument(_flag(key), dest=key, default=None,
                           help=f"{help_text} (default: {default})")
    return parser


def main(argv=None) -> int:
    # every flag but --help takes one value: "--flag value" is joined as "--flag=value",
    # so that argparse does not read a value such as -1e1 or -inf as an option
    joined: list[str] = []
    for token in sys.argv[1:] if argv is None else argv:
        flag = joined[-1] if joined else ""
        if flag.startswith("--") and "=" not in flag and not "--help".startswith(flag):
            token = f"{joined.pop()}={token}"
        joined.append(token)
    args = _build_parser().parse_args(joined)
    try:
        return _COMMANDS[args.command](_merge_config(args))
    except Exception as exc:  # one-line diagnostic, nonzero exit
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
