"""Command-line entry point: dataset generation/ingestion, sweeps, CSV and summary output.

Every option lives in a flat key-value config file and can be overridden by
the command-line flag of the same name. Output files are written atomically
(write-then-rename); any failure exits nonzero with a one-line diagnostic and
leaves no partial outputs behind.
"""

from __future__ import annotations

import argparse
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

# key -> (caster, default, help); config-file keys and CLI flags share names
_CONFIG_SPEC: dict[str, tuple] = {
    "m_rows": (int, 8, "antenna rows of the BS array"),
    "m_cols": (int, 8, "antenna columns of the BS array"),
    "carrier_hz": (float, 2.61e9, "carrier frequency in Hz"),
    "element_spacing_wavelengths": (float, 0.5, "element spacing in wavelengths"),
    "bs_height_m": (float, 11.0, "array center height in meters"),
    "trajectory_length_m": (float, 42.48, "trajectory length in meters"),
    "trajectory_speed_mps": (float, 1.5, "trajectory speed in m/s"),
    "sample_interval_ms": (float, 1.0, "sampling interval in milliseconds"),
    "altitude_terrestrial_m": (float, 8.0, "terrestrial-layer altitude in meters"),
    "altitude_aerial_m": (float, 24.0, "aerial-layer altitude in meters"),
    "standoff_distance_m": (float, 30.0, "horizontal array-to-trajectory distance in meters"),
    "rician_k_terrestrial_db": (float, 3.0, "terrestrial Rician K-factor in dB"),
    "rician_k_aerial_db": (float, 20.0, "aerial Rician K-factor in dB"),
    "snr_db": (float, 20.0, "dataset-average SNR target in dB"),
    "alpha": (float, 0.6, "SUS orthogonality threshold in (0, 1]"),
    "seed": (int, 0, "master seed for generation, pools and random scheduling"),
    "trials": (int, 20, "random-scheduling trials per schedule size"),
    "pool_terrestrial": (int, 36, "terrestrial candidate-pool size (-1 keeps all)"),
    "pool_aerial": (int, 28, "aerial candidate-pool size (-1 keeps all)"),
    "pool_policy": (str, "stride", "pool subsampling policy: stride or uniform"),
    "k_range": (str, "1:64", "total-user sweep range, e.g. 1:64"),
    "methods": (str, "random,sus", "comma-separated sweep methods"),
    "ground_range": (str, "0:36", "grid range of terrestrial users, e.g. 0:36"),
    "aerial_range": (str, "0:28", "grid range of aerial users, e.g. 0:28"),
    "thresholds": (str, "8", "comma-separated minimum individual-SE thresholds"),
    "csi": (str, "", "comma-separated capture binaries to ingest"),
    "format": (str, "", "comma-separated sidecars (default: <capture>.cfg)"),
    "out": (str, "out", "output directory"),
    "table": (str, "", "existing sweep.csv to summarize (report command)"),
}

_COMMANDS = ("generate", "ingest", "sweep-total", "sweep-grid", "report")


def _parse_range(text: str, name: str) -> list[int]:
    values: set[int] = set()
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        if ":" in part:
            lo, hi = (int(v) for v in part.split(":", 1))
            if hi < lo:
                raise ValueError(f"{name} has a descending range {part!r}")
            values.update(range(lo, hi + 1))
        else:
            values.add(int(part))
    if not values:
        raise ValueError(f"{name} is empty: {text!r}")
    return sorted(values)


def _merge_config(args: argparse.Namespace) -> dict:
    cfg = {key: default for key, (_, default, _) in _CONFIG_SPEC.items()}
    if args.config:
        cfg.update(_parse_keyvalues(args.config, {k: s[0] for k, s in _CONFIG_SPEC.items()}))
    for key in _CONFIG_SPEC:
        override = getattr(args, key, None)
        if override is not None:
            cfg[key] = override
    return cfg


def _scenario_from(cfg: dict) -> ScenarioConfig:
    return ScenarioConfig(
        m_rows=cfg["m_rows"],
        m_cols=cfg["m_cols"],
        carrier_hz=cfg["carrier_hz"],
        element_spacing_wavelengths=cfg["element_spacing_wavelengths"],
        bs_height_m=cfg["bs_height_m"],
        trajectory_length_m=cfg["trajectory_length_m"],
        trajectory_speed_mps=cfg["trajectory_speed_mps"],
        sample_interval_ms=cfg["sample_interval_ms"],
        layer_altitudes_m=(cfg["altitude_terrestrial_m"], cfg["altitude_aerial_m"]),
        standoff_distance_m=cfg["standoff_distance_m"],
        rician_k_db=(cfg["rician_k_terrestrial_db"], cfg["rician_k_aerial_db"]),
        seed=cfg["seed"],
    )


def _load_captures(cfg: dict) -> CsiDataset:
    bins = [p.strip() for p in cfg["csi"].split(",") if p.strip()]
    sidecars = [p.strip() for p in cfg["format"].split(",") if p.strip()]
    if not bins:
        raise ValueError("no capture files given (set csi=... or --csi)")
    if sidecars and len(sidecars) != len(bins):
        raise ValueError("number of --format sidecars must match --csi captures")
    sidecars = sidecars or [None] * len(bins)  # None: load_capture's <capture>.cfg default
    return merge_datasets([load_capture(b, s) for b, s in zip(bins, sidecars)])


def _build_pool(cfg: dict) -> tuple[CsiDataset, str]:
    """Data source resolution: ingest when captures are named, generate otherwise."""
    if cfg["csi"]:
        dataset = _load_captures(cfg)
        mode = "ingest"
    else:
        dataset = generate_synthetic(_scenario_from(cfg))
        mode = "generate"
    dataset = normalize_to_snr(dataset, cfg["snr_db"])
    per_layer = []
    for key in ("pool_terrestrial", "pool_aerial"):
        if cfg[key] < -1:
            raise ValueError(f"{key} must be >= 0, or -1 to keep the whole layer; got {cfg[key]}")
        per_layer.append(None if cfg[key] == -1 else cfg[key])
    policy = PoolPolicy(cfg["pool_policy"])
    return subsample_pool(dataset, tuple(per_layer), policy, seed=cfg["seed"]), mode


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
    pool, mode = _build_pool(cfg)
    params = SusParams(alpha=cfg["alpha"])
    if kind == "total":
        methods = {SelectionMethod(m.strip()) for m in cfg["methods"].split(",") if m.strip()}
        table = sweep_total_users(
            pool,
            _parse_range(cfg["k_range"], "k_range"),
            methods=methods,
            trials=cfg["trials"],
            seed=cfg["seed"],
            params=params,
        )
    else:
        table = sweep_layer_grid(
            pool,
            _parse_range(cfg["ground_range"], "ground_range"),
            _parse_range(cfg["aerial_range"], "aerial_range"),
            params=params,
            seed=cfg["seed"],
        )
    thresholds = [float(t) for t in cfg["thresholds"].split(",") if t.strip()]
    files = {
        "sweep.csv": table.csv_text().encode(),
        "summary.txt": _summary_text(table, thresholds).encode(),
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
    table = _parse_csv_table(cfg["table"])
    thresholds = [float(t) for t in cfg["thresholds"].split(",") if t.strip()]
    summary = _summary_text(table, thresholds)
    _write_outputs(Path(cfg["out"]), {"summary.txt": summary.encode()})
    sys.stdout.write(summary)
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mimoshare",
        description="Massive-MIMO terrestrial/aerial spectrum-sharing simulator",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command in _COMMANDS:
        p = sub.add_parser(command)
        p.add_argument("--config", default=None, help="flat key-value config file")
        for key, (caster, default, help_text) in _CONFIG_SPEC.items():
            flag = "--" + key.replace("_", "-")
            p.add_argument(flag, dest=key, type=caster, default=None,
                           help=f"{help_text} (default: {default})")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = _merge_config(args)
        if args.command == "generate":
            return _cmd_generate(cfg)
        if args.command == "ingest":
            return _cmd_ingest(cfg)
        if args.command == "sweep-total":
            return _cmd_sweep(cfg, "total")
        if args.command == "sweep-grid":
            return _cmd_sweep(cfg, "grid")
        return _cmd_report(cfg)
    except Exception as exc:  # one-line diagnostic, nonzero exit
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
