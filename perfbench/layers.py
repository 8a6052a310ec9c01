"""Per-layer metrics computed from the spans a traced run wrote.

A span's self time is its duration minus the time its direct children cover.
Every span belongs to one layer (``cli``, ``csi``, ``sched``, ``zfmetrics``,
``sweeps``), so the layers' self times add up to the traced commands' root
spans: one ``cli.process`` span per command, spawn to exit, around the
tracer's ``cli.main`` span. Attribution follows the public call boundary
that ``tracer.py`` wraps.
"""

from __future__ import annotations

import statistics

LAYERS = ("cli", "csi", "sched", "zfmetrics", "sweeps")

# csi public function -> the csi.<stage>_s metric it is timed under
CSI_STAGE = {
    "generate_synthetic": "generate_s",
    "normalize_to_snr": "normalize_s",
    "subsample_pool": "subsample_s",
    "fingerprint": "fingerprint_s",
    "encode_csi_binary": "encode_s",
    "sidecar_text": "encode_s",
    "load_csi_binary": "load_s",
    "load_capture": "load_s",
    "read_sidecar": "load_s",
    "merge_datasets": "load_s",
}


def zf_flops(k: int, m: int) -> float:
    """Model real-flop count of one literal ZF + SINR evaluation of K users on M antennas.

    Gram, combiner product, one crosstalk check and the SINR cross product are
    each 8*M*K^2; the K x K SVD, Cholesky and identity solve are ~25*K^3.
    A computed count from the problem size, not a hardware counter.
    """
    return 32.0 * m * k * k + 25.0 * k**3


def _self_times(spans: list[dict]) -> list[float]:
    child_time = [0.0] * len(spans)
    for span in spans:
        if span["parent"] is not None:
            child_time[span["parent"]] += span["end"] - span["start"]
    return [s["end"] - s["start"] - c for s, c in zip(spans, child_time)]


def _percentile_ms(durations: list[float], pct: int) -> float:
    if not durations:
        return 0.0
    if len(durations) == 1:
        return durations[0] * 1e3
    return statistics.quantiles(durations, n=100, method="inclusive")[pct - 1] * 1e3


def layer_metrics(span_files: list[dict]) -> dict[str, float]:
    """Per-layer metrics over every traced command of one workload run."""
    self_by_layer = dict.fromkeys(LAYERS, 0.0)
    csi_stage = dict.fromkeys(sorted(set(CSI_STAGE.values())), 0.0)
    calls = {layer: [] for layer in LAYERS}
    m: dict[str, float] = {
        "csi.records": 0, "csi.bytes_computed": 0, "sched.users_selected": 0,
        "sched.fallbacks": 0, "zfmetrics.users_evaluated": 0, "zfmetrics.ill_conditioned": 0,
        "zfmetrics.gflop_computed": 0.0, "sweeps.rows": 0, "sweeps.serialize_s": 0.0,
    }
    for run in span_files:
        spans = run["spans"]
        for span, self_s in zip(spans, _self_times(spans)):
            layer, name, counts = span["layer"], span["name"], span["counts"]
            self_by_layer[layer] += self_s
            calls[layer].append(span["end"] - span["start"])
            if layer == "csi":
                stage = CSI_STAGE.get(name, "other_s")
                csi_stage[stage] = csi_stage.get(stage, 0.0) + self_s
                m["csi.records"] += counts.get("records", 0)
                m["csi.bytes_computed"] += counts.get("bytes", 0)
            elif layer == "sched" and "users" in counts:
                m["sched.users_selected"] += counts["users"]
                m["sched.fallbacks"] += counts["fallback"]
            elif layer == "zfmetrics":
                if counts.get("error") == "IllConditionedError":
                    m["zfmetrics.ill_conditioned"] += 1
                elif "users" in counts:
                    m["zfmetrics.users_evaluated"] += counts["users"]
                    m["zfmetrics.gflop_computed"] += zf_flops(counts["users"], counts["m"]) / 1e9
            elif layer == "sweeps":
                if name == "csv_text":
                    m["sweeps.serialize_s"] += self_s
                m["sweeps.rows"] += counts.get("rows", 0)
    for stage, seconds in csi_stage.items():
        m[f"csi.{stage}"] = seconds
    m["csi.busy_s"] = self_by_layer["csi"]
    m["cli.self_s"] = self_by_layer["cli"]
    m["sweeps.self_s"] = self_by_layer["sweeps"] - m["sweeps.serialize_s"]
    for layer in ("sched", "zfmetrics"):
        m[f"{layer}.calls"] = len(calls[layer])
        m[f"{layer}.busy_s"] = self_by_layer[layer]
        m[f"{layer}.call_p50_ms"] = _percentile_ms(calls[layer], 50)
        m[f"{layer}.call_p99_ms"] = _percentile_ms(calls[layer], 99)
    m["sched.fallback_frac"] = m.pop("sched.fallbacks") / max(1, m["sched.calls"])
    busy = m["zfmetrics.busy_s"]
    m["zfmetrics.gflops_achieved"] = m["zfmetrics.gflop_computed"] / busy if busy else 0.0
    process_s = sum(s["end"] - s["start"] for run in span_files for s in run["spans"]
                    if s["parent"] is None)
    main_s = sum(s["end"] - s["start"] for run in span_files for s in run["spans"]
                 if s["name"] == "cli.main")
    m["trace.instrumented_frac"] = main_s / process_s if process_s else 0.0
    return m
