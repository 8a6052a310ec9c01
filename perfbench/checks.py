"""Output correctness gate for the benchmark workloads.

A seed listed in ``reference.json`` must reproduce the recorded digests
exactly. Any other seed gets structural checks on ``sweep.csv`` plus a
literal re-evaluation through the public ``zf_combiner`` / ``sinr`` path,
compared at the CSV's 6 significant digits: of a seeded sample of rows, each
rescheduled as the sweep schedules it, and of the SUS rows that are prefixes
of one 64-user SUS schedule, which reschedules nothing per row.

Usage of the literal re-evaluation as a child, with the checkout's src/ on
PYTHONPATH: python3 perfbench/checks.py WORKLOAD SEED OUT_DIR
It prints a JSON list of failures.
"""

from __future__ import annotations

import hashlib
import json
import random
import sys
from pathlib import Path

from workloads import (
    BENCH_DIR, GRID_AERIAL, GRID_GROUND, GRID_ROWS, POOL, SNR_DB, TOTAL_K, TOTAL_ROWS,
    TOTAL_TRIALS,
)

REFERENCE_FILE = BENCH_DIR / "reference.json"
CSV_HEADER = "method,k_total,k_ground,k_aerial,trial,sum_se,mean_individual_se,fallback_rank"
SAMPLE_ROWS = 32
# both CSV fields are rounded to 6 significant digits, 5e-6 relative each
MEAN_REL_TOL = 1.01e-5


def sha256_file(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def output_digests(workload: str, out: Path) -> dict[str, str]:
    """The digests recorded per workload and seed (raises OSError on missing output)."""
    if workload in ("grid", "total"):
        return {"sweep.csv": sha256_file(out / "sweep.csv")}
    meta = json.loads((out / "ingest" / "meta.json").read_text())
    return {
        "terrestrial.bin": sha256_file(out / "capture" / "terrestrial.bin"),
        "aerial.bin": sha256_file(out / "capture" / "aerial.bin"),
        "dataset_fingerprint": meta["dataset_fingerprint"],
    }


def reference_for(workload: str, seed: int) -> dict[str, str] | None:
    digests = json.loads(REFERENCE_FILE.read_text())["digests"]
    return digests.get(workload, {}).get(str(seed))


def _sweep_rows(csv_text: str) -> tuple[list[str], list[list[str]]]:
    lines = csv_text.splitlines()
    return lines[:1], [line.split(",") for line in lines[1:]]


def structural_failures(workload: str, out: Path) -> list[str]:
    """Checks that need no reference: header, row count, per-layer counts, fallback column."""
    if workload == "capture":
        return _capture_structure(out)
    header, rows = _sweep_rows((out / "sweep.csv").read_text())
    failures = []
    if header != [CSV_HEADER]:
        failures.append(f"sweep.csv header is {header!r}")
    expected_rows = GRID_ROWS if workload == "grid" else TOTAL_ROWS
    if len(rows) != expected_rows:
        failures.append(f"sweep.csv has {len(rows)} rows, expected {expected_rows}")
    keys = []
    for n, fields in enumerate(rows, 1):
        try:
            if len(fields) != 8:
                raise ValueError(f"{len(fields)} fields")
            method, k_total, k_ground, k_aerial, trial = fields[0], *map(int, fields[1:5])
            sum_se, _ = float(fields[5]), float(fields[6])
        except ValueError as exc:
            failures.append(f"row {n}: malformed ({exc})")
            continue
        keys.append((method, k_total, k_ground, k_aerial, trial))
        if k_ground + k_aerial != k_total:
            failures.append(f"row {n}: per-layer counts {k_ground}+{k_aerial} != {k_total}")
        fallback = fields[7]
        if fallback and not (fallback.isdigit() and int(fallback) < k_total):
            failures.append(f"row {n}: fallback rank {fallback!r} outside 0..{k_total - 1}")
        if method == "random" and fallback:
            failures.append(f"row {n}: random schedule carries a fallback rank")
        if not sum_se > 0.0:
            failures.append(f"row {n}: sum_se {fields[5]} is not positive")
        elif abs(float(fields[6]) * k_total / sum_se - 1.0) > MEAN_REL_TOL:
            failures.append(f"row {n}: mean_individual_se {fields[6]} != {fields[5]} / {k_total}")
    if workload == "grid":
        cells = [(g, a) for g in GRID_GROUND for a in GRID_AERIAL if (g, a) != (0, 0)]
        expected = [("sus_layered", g + a, g, a, 0) for g, a in cells]
    else:
        expected = [("random", k, -1, -1, t) for k in range(1, TOTAL_K + 1)
                    for t in range(TOTAL_TRIALS)]
        expected += [("sus", k, -1, -1, 0) for k in range(1, TOTAL_K + 1)]
        keys = [(m, k, -1, -1, t) for m, k, _, _, t in keys]
    if keys != expected:
        failures.append("sweep.csv rows do not cover the expected cells in canonical order")
    return failures[:10]


def _capture_structure(out: Path) -> list[str]:
    gen = json.loads((out / "capture" / "meta.json").read_text())
    ing = json.loads((out / "ingest" / "meta.json").read_text())
    failures = []
    for layer in ("terrestrial", "aerial"):
        n = gen[f"records_{layer}"]
        if ing[f"records_{layer}"] != n:
            failures.append(f"ingest read {ing[f'records_{layer}']} {layer} records, wrote {n}")
        size = (out / "capture" / f"{layer}.bin").stat().st_size
        if size != n * gen["m_antennas"] * 4:
            failures.append(f"{layer}.bin is {size} bytes for {n} records")
    return failures


def literal_failures(workload: str, seed: int, out: Path) -> list[str]:
    """Re-evaluate sweep rows through the public literal ZF/SINR path.

    A seeded sample of rows is rescheduled row by row as the sweep schedules
    it; the SUS rows on the path of one 64-user SUS schedule are checked as
    its prefixes (``_sus_prefix_failures``).

    Imports mimoshare, so it runs in a child (see ``main``): the benchmark
    process itself never loads the program.
    """
    import numpy as np

    import mimoshare as ms

    dataset = ms.normalize_to_snr(ms.generate_synthetic(ms.ScenarioConfig(seed=seed)), SNR_DB)
    if workload == "capture":
        return _capture_literal(ms, dataset, out)
    pool = ms.subsample_pool(dataset, POOL, seed=seed)
    meta = json.loads((out / "meta.json").read_text())
    if meta["dataset_fingerprint"] != pool.fingerprint():
        return [f"pool fingerprint {meta['dataset_fingerprint']} != {pool.fingerprint()}"]
    _, rows = _sweep_rows((out / "sweep.csv").read_text())
    failures = []
    for fields in random.Random(seed).sample(rows, SAMPLE_ROWS):
        method, k_total, k_ground, k_aerial, trial = fields[0], *map(int, fields[1:5])
        if method == "sus_layered":
            quota = {ms.Layer.TERRESTRIAL: k_ground, ms.Layer.AERIAL: k_aerial}
            selection = ms.sus_select_layered(pool, quota)
        elif method == "sus":
            selection = ms.sus_select(pool, k_total)
        else:
            # the sweep's documented per-row seed: SeedSequence([seed, k, trial])
            row_seed = int(np.random.SeedSequence([seed, k_total, trial]).generate_state(1)[0])
            selection = ms.random_select(pool, k_total, row_seed)
        fallback = "" if selection.fallback_used_from is None else str(selection.fallback_used_from)
        failures += _row_failures(ms, pool, fields, selection.chosen, fallback)
    return failures + _sus_prefix_failures(ms, pool, rows)


def _row_failures(ms, pool, fields: list[str], chosen, fallback: str) -> list[str]:
    """Compare one CSV row with the literal ZF/SINR evaluation of the users ``chosen``."""
    channels = pool.channels_for(chosen)
    sinr = ms.sinr(ms.zf_combiner(channels), channels, 1.0, pool.noise_power)
    total = ms.sum_se(ms.spectral_efficiency(sinr))
    layer_of = {r.index: r.layer for r in pool.records}
    ground = sum(layer_of[i] is ms.Layer.TERRESTRIAL for i in chosen)
    literal = [str(ground), str(len(chosen) - ground), f"{total:.6g}",
               f"{total / len(chosen):.6g}", fallback]
    csv = fields[2:4] + fields[5:8]
    if literal != csv:
        return [f"row {','.join(fields[:5])}: csv {csv} != literal {literal}"]
    return []


def _sus_prefix_failures(ms, pool, rows: list[list[str]]) -> list[str]:
    """Check the SUS rows that are prefixes of one 64-user SUS schedule.

    SUS picks one user at a time and k only says when to stop, so the k-user
    schedule is the first k picks of the 64-user one, and a fallback from pick
    f shows in every row with k > f. A layered cell (g, a) whose quota the
    unconstrained k = g + a prefix meets exactly picks the same users, since
    each pick of the prefix already lies in a layer still open. So these rows
    are checked without rescheduling any of them.
    """
    full = ms.sus_select(pool, TOTAL_K)
    layer_of = {r.index: r.layer for r in pool.records}
    sus_rows = {int(f[1]): f for f in rows if f[0] == "sus"}
    layered_rows = {tuple(map(int, f[2:4])): f for f in rows if f[0] == "sus_layered"}
    failures = []
    for k in range(1, TOTAL_K + 1):
        prefix = full.chosen[:k]
        ground = sum(layer_of[i] is ms.Layer.TERRESTRIAL for i in prefix)
        fields = sus_rows.get(k) or layered_rows.get((ground, k - ground))
        if fields is None:
            continue
        f = full.fallback_used_from
        failures += _row_failures(ms, pool, fields, prefix, str(f) if f is not None and f < k else "")
    return failures


def _capture_literal(ms, dataset, out: Path) -> list[str]:
    """Re-encode the generated dataset per layer and re-ingest the written binaries."""
    failures = []
    for layer in ms.Layer:
        sub = ms.CsiDataset(
            records=tuple(r for r in dataset.records if r.layer is layer),
            m_antennas=dataset.m_antennas,
        )
        path = out / "capture" / f"{layer.value}.bin"
        if hashlib.sha256(ms.encode_csi_binary(sub)).hexdigest() != sha256_file(path):
            failures.append(f"{path.name} differs from the literal Q1.15 encoding")
    ingested = ms.normalize_to_snr(
        ms.merge_datasets([ms.load_capture(out / "capture" / f"{layer.value}.bin")
                           for layer in ms.Layer]), SNR_DB)
    recorded = json.loads((out / "ingest" / "meta.json").read_text())["dataset_fingerprint"]
    if ingested.fingerprint() != recorded:
        failures.append(f"ingest fingerprint {recorded} != reloaded {ingested.fingerprint()}")
    return failures


def main(argv: list[str]) -> int:
    if len(argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    print(json.dumps(literal_failures(argv[0], int(argv[1]), Path(argv[2]))))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
