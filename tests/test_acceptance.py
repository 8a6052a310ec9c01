"""End-to-end acceptance suite.

Each test covers one release criterion at its pinned tolerance and prints one
pass line (visible with ``pytest -s``) including the measured margin.
"""

import hashlib
import time
from itertools import combinations
from pathlib import Path

import numpy as np
import pytest

from conftest import pool_from_vectors
from mimoshare.cli import main
from mimoshare.csi import (
    FixedPointFormat,
    Layer,
    ScenarioConfig,
    encode_csi_binary,
    generate_synthetic,
    load_csi_binary,
    normalize_to_snr,
)
from mimoshare.sched import SelectionMethod, SelectionResult, sus_select
from mimoshare.sweeps import exhaustive_oracle, find_peak, sweep_layer_grid, sweep_total_users
from mimoshare.zfmetrics import IllConditionedError, evaluate_selection, sinr, zf_combiner

MINI_CFG = str(Path(__file__).parent / "data" / "mini_grid.cfg")

# frozen from the reference run of tests/data/mini_grid.cfg (24 grid rows)
GOLDEN_SWEEP_SHA256 = "8b3472015ec80a108e9f37689dc34a1ea4c2a8b5f92b4171214ed53bfea0b8ad"


def zf_instances(reps=13, seed=20260809):
    """>= 200 seeded instances over M in {4,8,16,64}, K in {1, M/2, M-1, M}."""
    rng = np.random.default_rng(seed)
    for _ in range(reps):
        for m in (4, 8, 16, 64):
            for k in sorted({1, m // 2, m - 1, m}):
                h = (rng.standard_normal((k, m)) + 1j * rng.standard_normal((k, m))) / np.sqrt(2)
                yield h / np.linalg.norm(h, axis=1, keepdims=True)


def test_zf_nulling_suite():
    start = time.monotonic()
    worst_null = worst_diag = 0.0
    count = 0
    for channels in zf_instances():
        comb = zf_combiner(channels)
        cross = comb.matrix.conj().T @ channels.T
        k = channels.shape[0]
        off_diag = np.abs(cross - np.diag(np.diagonal(cross)))
        worst_null = max(worst_null, float(off_diag.max()))
        worst_diag = max(worst_diag, float(np.abs(np.diagonal(cross) - 1.0).max()))
        count += 1
        assert off_diag.max() < 1e-8
        assert np.abs(np.diagonal(cross) - 1.0).max() < 1e-8
    elapsed = time.monotonic() - start
    assert count >= 200
    assert elapsed < 60.0
    print(
        f"\n[acceptance] ZF nulling suite: PASS "
        f"({count} instances, worst nulling {worst_null:.2e}, worst diagonal {worst_diag:.2e}, "
        f"{elapsed:.1f}s)"
    )


def test_sinr_closed_form_equivalence():
    worst = 0.0
    count = 0
    for channels in zf_instances():
        comb = zf_combiner(channels)
        literal = sinr(comb, channels, tx_power=1.0, noise_power=0.01)
        closed = 1.0 / (0.01 * np.sum(np.abs(comb.matrix) ** 2, axis=0))
        rel = float(np.abs(literal / closed - 1.0).max())
        worst = max(worst, rel)
        count += 1
        assert rel < 1e-9
    print(
        f"\n[acceptance] SINR closed-form equivalence: PASS "
        f"({count} instances, worst relative deviation {worst:.2e})"
    )


def test_oracle_equivalence_at_desk_scale():
    start = time.monotonic()
    rng = np.random.default_rng(7)
    wins = 0
    ratios = []
    for _ in range(100):
        vectors = (rng.standard_normal((8, 4)) + 1j * rng.standard_normal((8, 4))) / np.sqrt(2)
        pool = pool_from_vectors(vectors)
        sus_se = evaluate_selection(pool, sus_select(pool, 3)).sum_se
        _, optimum = exhaustive_oracle(pool, 3)
        subset_sums = []
        for combo in combinations(range(8), 3):
            selection = SelectionResult(
                combo, {Layer.TERRESTRIAL: 3, Layer.AERIAL: 0}, SelectionMethod.EXHAUSTIVE
            )
            try:
                subset_sums.append(evaluate_selection(pool, selection).sum_se)
            except IllConditionedError:
                subset_sums.append(0.0)
        if sus_se >= float(np.median(subset_sums)):
            wins += 1
        assert optimum >= sus_se - 1e-12
        ratios.append(sus_se / optimum)
    elapsed = time.monotonic() - start
    assert wins == 100
    assert elapsed < 30.0
    print(
        f"\n[acceptance] Oracle equivalence at desk scale: PASS "
        f"(SUS >= median on {wins}/100 pools, SUS/optimum mean {np.mean(ratios):.4f} "
        f"min {np.min(ratios):.4f}, {elapsed:.1f}s)"
    )


def test_total_user_sweep_shape(default_pool):
    start = time.monotonic()
    table = sweep_total_users(default_pool, range(1, 65), trials=20, seed=0)
    sus_sum = {}
    sus_ind = {}
    random_sums = {}
    for row in table.rows:
        if row.method is SelectionMethod.SUS:
            sus_sum[row.k_total] = row.sum_se
            sus_ind[row.k_total] = row.mean_individual_se
        else:
            random_sums.setdefault(row.k_total, []).append(row.sum_se)

    # (a) SUS at or above the random mean for every schedule size
    for k in range(1, 65):
        assert sus_sum[k] >= float(np.mean(random_sums[k])) - 1e-9, k

    # (b) summed SE rises then falls, peaking strictly below 64
    curve = [sus_sum[k] for k in range(1, 65)]
    argmax_k = int(np.argmax(curve)) + 1
    assert argmax_k < 64
    assert curve[argmax_k - 1] > curve[0]
    assert curve[argmax_k - 1] > curve[-1]

    # (c) deterministic individual-SE curve non-increasing within 1% per step
    for k in range(1, 64):
        assert sus_ind[k + 1] <= sus_ind[k] * 1.01, k

    elapsed = time.monotonic() - start
    assert elapsed < 300.0
    print(
        f"\n[acceptance] Total-user sweep shape: PASS "
        f"(SUS >= random mean for k=1..64, peak {max(curve):.1f} bits/s/Hz at k={argmax_k}, "
        f"{elapsed:.1f}s)"
    )


def test_layer_asymmetry_mechanism(default_pool):
    start = time.monotonic()

    def mean_pairwise_correlation(layer):
        x = default_pool.channels[default_pool.layer_codes == layer.code]
        xn = x / np.linalg.norm(x, axis=1, keepdims=True)
        c = np.abs(xn @ xn.conj().T)
        upper = np.triu_indices(len(x), 1)
        return float(c[upper].mean())

    corr_aerial = mean_pairwise_correlation(Layer.AERIAL)
    corr_ground = mean_pairwise_correlation(Layer.TERRESTRIAL)
    assert corr_aerial > corr_ground  # precondition: the mechanism is present

    table = sweep_layer_grid(default_pool, range(0, 37), range(0, 29))
    assert len(table.rows) == 37 * 29 - 1
    k_ground, k_aerial, peak_se = find_peak(table)
    assert k_ground > k_aerial

    elapsed = time.monotonic() - start
    assert elapsed < 600.0
    print(
        f"\n[acceptance] Layer asymmetry mechanism: PASS "
        f"(pairwise correlation aerial {corr_aerial:.3f} > ground {corr_ground:.3f}; "
        f"grid peak {peak_se:.1f} bits/s/Hz at ground={k_ground}, aerial={k_aerial}, "
        f"{elapsed:.1f}s)"
    )


def test_ingestion_roundtrip_quantization_bound(tmp_path):
    config = ScenarioConfig(
        trajectory_length_m=4.0, trajectory_speed_mps=1.0, sample_interval_ms=100.0, seed=5
    )
    dataset = normalize_to_snr(generate_synthetic(config), 20.0)
    fmt = FixedPointFormat(m_antennas=dataset.m_antennas)
    path = tmp_path / "roundtrip.bin"
    path.write_bytes(encode_csi_binary(dataset, fmt))
    reloaded = load_csi_binary(path, fmt)
    delta = reloaded.channels - dataset.channels
    worst = float(np.maximum(np.abs(delta.real), np.abs(delta.imag)).max())
    assert worst <= 2.0**-15
    print(
        f"\n[acceptance] Ingestion round-trip: PASS "
        f"(worst per-component error {worst:.2e} <= 2^-15 = {2.0**-15:.2e})"
    )


def test_golden_miniature_config_hash(tmp_path):
    digests = []
    for run in ("a", "b"):
        out = tmp_path / run
        assert main(["sweep-grid", "--config", MINI_CFG, "--out", str(out)]) == 0
        digests.append(hashlib.sha256((out / "sweep.csv").read_bytes()).hexdigest())
    assert digests[0] == digests[1]
    assert digests[0] == GOLDEN_SWEEP_SHA256
    print(
        f"\n[acceptance] Determinism golden file: PASS "
        f"(sweep.csv sha256 {digests[0][:12]}... identical across runs and equal to the "
        f"frozen reference)"
    )
