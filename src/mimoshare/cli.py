"""Command-line entry point: dataset generation/ingestion, sweeps, CSV and summary output.

Every option lives in a flat key-value config file and can be overridden by
the command-line flag of the same name. Output files are written atomically
(write-then-rename); any failure exits nonzero with a one-line diagnostic and
leaves no partial outputs behind.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
from pathlib import Path

from .csi import (
    CsiDataset,
    FixedPointFormat,
    Layer,
    PoolPolicy,
    ScenarioConfig,
    _parse_keyvalues,
    _scaled,
    _snr_scale,
    encode_csi_binary,
    generate_synthetic,
    load_capture,
    merge_datasets,
    normalize_to_snr,
    sidecar_text,
    subsample_pool,
)
from .sched import SelectionMethod, SusParams
from .sweeps import (
    CSV_HEADER,
    SweepRow,
    SweepTable,
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


def _range_part(part: str) -> range:
    if ":" not in part:
        return range(int(part), int(part) + 1)
    lo, hi = (int(v) for v in part.split(":", 1))
    if hi < lo:
        raise ValueError(f"descending range {part!r}")
    return range(lo, hi + 1)


def _int_range(text: str) -> list[int]:
    """Sorted distinct ints of a comma-separated list of ``n`` and ``lo:hi`` parts."""
    values = sorted(set().union(*map(_range_part, _comma_list(text))))
    if not values:
        raise ValueError(f"empty range {text!r}")
    return values


def _pool_count(text) -> int | None:
    """A per-layer pool size; -1 keeps the whole layer and reads as None."""
    count = int(text)
    if count < -1:
        raise ValueError(f"must be >= 0, or -1 to keep the whole layer; got {count}")
    return None if count == -1 else count


# key -> (caster, default, help); config-file keys and CLI flags share names.
# _merge_config casts every value, so commands read typed values from cfg.
_CONFIG_SPEC: dict[str, tuple] = {
    "m_rows": (int, _SCENARIO.m_rows, "antenna rows of the BS array"),
    "m_cols": (int, _SCENARIO.m_cols, "antenna columns of the BS array"),
    "carrier_hz": (float, _SCENARIO.carrier_hz, "carrier frequency in Hz"),
    "element_spacing_wavelengths":
        (float, _SCENARIO.element_spacing_wavelengths, "element spacing in wavelengths"),
    "bs_height_m": (float, _SCENARIO.bs_height_m, "array center height in meters"),
    "trajectory_length_m": (float, _SCENARIO.trajectory_length_m, "trajectory length in meters"),
    "trajectory_speed_mps": (float, _SCENARIO.trajectory_speed_mps, "trajectory speed in m/s"),
    "sample_interval_ms":
        (float, _SCENARIO.sample_interval_ms, "sampling interval in milliseconds"),
    "altitude_terrestrial_m":
        (float, _SCENARIO.layer_altitudes_m[0], "terrestrial-layer altitude in meters"),
    "altitude_aerial_m": (float, _SCENARIO.layer_altitudes_m[1], "aerial-layer altitude in meters"),
    "standoff_distance_m":
        (float, _SCENARIO.standoff_distance_m, "horizontal array-to-trajectory distance in meters"),
    "rician_k_terrestrial_db":
        (float, _SCENARIO.rician_k_db[0], "terrestrial Rician K-factor in dB"),
    "rician_k_aerial_db": (float, _SCENARIO.rician_k_db[1], "aerial Rician K-factor in dB"),
    "snr_db": (float, 20.0, "dataset-average SNR target in dB"),
    "alpha": (float, SusParams().alpha, "SUS orthogonality threshold in (0, 1]"),
    "seed": (int, 0, "master seed for generation, pools and random scheduling"),
    "trials": (int, 20, "random-scheduling trials per schedule size"),
    "pool_terrestrial": (_pool_count, 36, "terrestrial candidate-pool size (-1 keeps all)"),
    "pool_aerial": (_pool_count, 28, "aerial candidate-pool size (-1 keeps all)"),
    "pool_policy": (PoolPolicy, "stride", "pool subsampling policy: stride or uniform"),
    "k_range": (_int_range, "1:64", "total-user sweep range, e.g. 1:64"),
    "methods": (_list_of(SelectionMethod), "random,sus", "comma-separated sweep methods"),
    "ground_range": (_int_range, "0:36", "grid range of terrestrial users, e.g. 0:36"),
    "aerial_range": (_int_range, "0:28", "grid range of aerial users, e.g. 0:28"),
    "thresholds": (_list_of(float), "8", "comma-separated minimum individual-SE thresholds"),
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
                raise ValueError(f"{key}: {exc}") from None
    return cfg


def _scenario_from(cfg: dict) -> ScenarioConfig:
    shared = {f.name: cfg[f.name] for f in dataclasses.fields(ScenarioConfig) if f.name in cfg}
    return ScenarioConfig(
        **shared,
        layer_altitudes_m=(cfg["altitude_terrestrial_m"], cfg["altitude_aerial_m"]),
        rician_k_db=(cfg["rician_k_terrestrial_db"], cfg["rician_k_aerial_db"]),
    )


def _load_captures(cfg: dict) -> CsiDataset:
    bins, sidecars = cfg["csi"], cfg["format"]
    if not bins:
        raise ValueError("no capture files given (set csi=... or --csi)")
    if sidecars and len(sidecars) != len(bins):
        raise ValueError("number of --format sidecars must match --csi captures")
    sidecars = sidecars or [None] * len(bins)  # None: load_capture's <capture>.cfg default
    return merge_datasets([load_capture(b, s) for b, s in zip(bins, sidecars)])


def _build_pool(cfg: dict) -> tuple[CsiDataset, str]:
    """Data source resolution: ingest when captures are named, generate otherwise.

    The pool is ``subsample_pool(normalize_to_snr(dataset, snr_db), ...)``,
    bit for bit, built without a normalized copy of the whole dataset: the
    whole dataset's factor scales only the rows the pool keeps.
    """
    if cfg["csi"]:
        dataset = _load_captures(cfg)
        mode = "ingest"
    else:
        dataset = generate_synthetic(_scenario_from(cfg))
        mode = "generate"
    scale = _snr_scale(dataset)
    per_layer = (cfg["pool_terrestrial"], cfg["pool_aerial"])
    pool = subsample_pool(dataset, per_layer, cfg["pool_policy"], seed=cfg["seed"])
    return _scaled(pool, scale, cfg["snr_db"]), mode


def _write_outputs(out_dir: Path, files: dict[str, bytes]) -> None:
    """Two-phase atomic write: stage every temp file, then rename all."""
    out_dir.mkdir(parents=True, exist_ok=True)
    staged: list[tuple[Path, Path]] = []
    try:
        for name, payload in files.items():
            tmp = out_dir / f".{name}.tmp-{os.getpid()}"
            tmp.write_bytes(payload)
            staged.append((tmp, out_dir / name))
        for tmp, final in staged:
            os.replace(tmp, final)
    except BaseException:
        for tmp, _ in staged:
            tmp.unlink(missing_ok=True)
        raise


def _summary_text(table: SweepTable, thresholds: list[float]) -> str:
    lines = [f"sweep: {table.meta.get('sweep', 'unknown')}", f"rows: {len(table.rows)}"]
    methods = sorted({row.method for row in table.rows}, key=lambda m: m.value)
    for method in methods:
        sub = SweepTable(
            rows=tuple(r for r in table.rows if r.method is method), meta=table.meta
        )
        k_ground, k_aerial, peak_se = find_peak(sub)
        lines.append(
            f"method={method.value}: peak sum_se={peak_se:.6g} bits/s/Hz at "
            f"k_total={k_ground + k_aerial} (k_ground={k_ground}, k_aerial={k_aerial})"
        )
        for threshold in thresholds:
            capacity = max_users_for_min_se(sub, method, threshold)
            lines.append(
                f"method={method.value}: max users with mean individual SE >= "
                f"{threshold:.6g} bits/s/Hz: {capacity}"
            )
    for key in sorted(table.meta):
        lines.append(f"{key}={table.meta[key]}")
    return "\n".join(lines) + "\n"


def _meta_json(table_meta: dict, cfg: dict, command: str, mode: str) -> bytes:
    meta = dict(table_meta)
    meta.update(
        {
            "command": command,
            "mode": mode,
            "snr_db": cfg["snr_db"],
            "alpha": cfg["alpha"],
            "seed": cfg["seed"],
        }
    )
    return (json.dumps(meta, sort_keys=True, indent=2) + "\n").encode()


def _cmd_generate(cfg: dict) -> int:
    scenario = _scenario_from(cfg)
    dataset = normalize_to_snr(generate_synthetic(scenario), cfg["snr_db"])
    out_dir = Path(cfg["out"])
    fmt = FixedPointFormat(m_antennas=dataset.m_antennas)
    counts = dataset.layer_counts()
    files: dict[str, bytes] = {}
    for layer, altitude in zip((Layer.TERRESTRIAL, Layer.AERIAL), scenario.layer_altitudes_m):
        sub = dataset.take(dataset.layer_codes == layer.code)
        files[f"{layer.value}.bin"] = encode_csi_binary(sub, fmt)
        files[f"{layer.value}.bin.cfg"] = sidecar_text(
            fmt,
            layer,
            altitude_m=altitude,
            sample_interval_ms=scenario.sample_interval_ms,
            extra={"snr_db": f"{cfg['snr_db']:g}", "scale_applied": f"{dataset.scale_applied:.12g}"},
        ).encode()
    meta = {
        "m_antennas": dataset.m_antennas,
        "records_terrestrial": counts[Layer.TERRESTRIAL],
        "records_aerial": counts[Layer.AERIAL],
        "dataset_fingerprint": dataset.fingerprint(),
    }
    files["meta.json"] = _meta_json(meta, cfg, "generate", "generate")
    _write_outputs(out_dir, files)
    print(f"wrote {counts[Layer.TERRESTRIAL]}+{counts[Layer.AERIAL]} records to {out_dir}")
    return 0


def _cmd_ingest(cfg: dict) -> int:
    dataset = normalize_to_snr(_load_captures(cfg), cfg["snr_db"])
    counts = dataset.layer_counts()
    fingerprint = dataset.fingerprint()
    meta = {
        "m_antennas": dataset.m_antennas,
        "records_terrestrial": counts[Layer.TERRESTRIAL],
        "records_aerial": counts[Layer.AERIAL],
        "scale_applied": dataset.scale_applied,
        "noise_power": dataset.noise_power,
        "dataset_fingerprint": fingerprint,
    }
    _write_outputs(Path(cfg["out"]), {"meta.json": _meta_json(meta, cfg, "ingest", "ingest")})
    print(
        f"ingested {len(dataset)} records "
        f"({counts[Layer.TERRESTRIAL]} terrestrial, {counts[Layer.AERIAL]} aerial), "
        f"fingerprint {fingerprint}"
    )
    return 0


def _cmd_sweep(cfg: dict, kind: str) -> int:
    params = SusParams(alpha=cfg["alpha"])  # checked before the dataset is built
    pool, mode = _build_pool(cfg)
    if kind == "total":
        table = sweep_total_users(pool, cfg["k_range"], methods=cfg["methods"],
                                  trials=cfg["trials"], seed=cfg["seed"], params=params)
    else:
        table = sweep_layer_grid(pool, cfg["ground_range"], cfg["aerial_range"], params=params,
                                 seed=cfg["seed"])
    files = {
        "sweep.csv": table.csv_text().encode(),
        "summary.txt": _summary_text(table, cfg["thresholds"]).encode(),
        "meta.json": _meta_json(table.meta, cfg, f"sweep-{kind}", mode),
    }
    _write_outputs(Path(cfg["out"]), files)
    print(f"wrote {len(table.rows)} rows to {Path(cfg['out']) / 'sweep.csv'}")
    return 0


def _parse_csv_table(path: str) -> SweepTable:
    lines = Path(path).read_text().splitlines()
    if not lines or lines[0] != CSV_HEADER:
        raise ValueError(f"{path}: not a sweep table (unexpected header)")
    rows = []
    for line in lines[1:]:
        if not line.strip():
            continue
        fields = line.split(",")
        if len(fields) != 8:
            raise ValueError(f"{path}: malformed row {line!r}")
        rows.append(
            SweepRow(
                method=SelectionMethod(fields[0]),
                k_total=int(fields[1]),
                k_ground=int(fields[2]),
                k_aerial=int(fields[3]),
                trial=int(fields[4]),
                sum_se=float(fields[5]),
                mean_individual_se=float(fields[6]),
                fallback_rank=int(fields[7]) if fields[7] else None,
                selection=None,
            )
        )
    return SweepTable(rows=tuple(rows), meta={"sweep": "from_csv", "source": path})


def _cmd_report(cfg: dict) -> int:
    if not cfg["table"]:
        raise ValueError("report needs an input table (set table=... or --table)")
    summary = _summary_text(_parse_csv_table(cfg["table"]), cfg["thresholds"])
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
            p.add_argument("--" + key.replace("_", "-"), dest=key, default=None,
                           help=f"{help_text} (default: {default})")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](_merge_config(args))
    except Exception as exc:  # one-line diagnostic, nonzero exit
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
